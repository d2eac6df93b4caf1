//! Seeded traffic: a permutation of the test split, drawn from the run's
//! `--seed`, cut into fixed-size batches, each serialized once as a predict
//! body.

use cardest::pipeline::EncodedSet;
use cardest::serve::json_f64;

/// SplitMix64: a tiny, fully specified generator, so the request sequence
/// depends on the seed alone.
struct SplitMix(u64);

impl SplitMix {
    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
}

/// A Fisher–Yates permutation of `0..n` drawn from `seed`.
pub fn permutation(n: usize, seed: u64) -> Vec<usize> {
    let mut rng = SplitMix(seed);
    let mut order: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        let j = (rng.next_u64() % (i as u64 + 1)) as usize;
        order.swap(i, j);
    }
    order
}

/// Serializes feature rows, and truths when given, as a predict body
/// (`{"features":[[…]…],"truths":[…]}`), with the wire's exact float format.
pub fn predict_body(features: &[Vec<f32>], truths: Option<&[f64]>) -> Vec<u8> {
    let mut body = String::from("{\"features\":[");
    for (i, row) in features.iter().enumerate() {
        if i > 0 {
            body.push(',');
        }
        body.push('[');
        for (j, v) in row.iter().enumerate() {
            if j > 0 {
                body.push(',');
            }
            body.push_str(&json_f64(f64::from(*v)));
        }
        body.push(']');
    }
    body.push(']');
    if let Some(truths) = truths {
        body.push_str(",\"truths\":[");
        for (i, y) in truths.iter().enumerate() {
            if i > 0 {
                body.push(',');
            }
            body.push_str(&json_f64(*y));
        }
        body.push(']');
    }
    body.push('}');
    body.into_bytes()
}

/// One batch of test queries and its two wire forms.
pub struct Batch {
    /// Feature rows, in request order.
    pub features: Vec<Vec<f32>>,
    /// True selectivities of the rows.
    pub truths: Vec<f64>,
    /// The truth-free predict body.
    pub plain: Vec<u8>,
    /// The same body carrying the truths.
    pub with_truths: Vec<u8>,
}

/// The test split in seeded order, cut into full batches of `size` queries
/// (a short tail is dropped so every request has the same size).
pub fn batches(test: &EncodedSet, size: usize, seed: u64) -> Vec<Batch> {
    let order = permutation(test.len(), seed);
    order
        .chunks_exact(size)
        .map(|rows| {
            let features: Vec<Vec<f32>> = rows.iter().map(|&r| test.x[r].clone()).collect();
            let truths: Vec<f64> = rows.iter().map(|&r| test.y[r]).collect();
            let plain = predict_body(&features, None);
            let with_truths = predict_body(&features, Some(&truths));
            Batch {
                features,
                truths,
                plain,
                with_truths,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn split(n: usize) -> EncodedSet {
        EncodedSet {
            x: (0..n)
                .map(|i| vec![i as f32 * 0.125, 1.0 / (i as f32 + 3.0)])
                .collect(),
            y: (0..n).map(|i| (i as f64 + 0.5) / 1e3).collect(),
        }
    }

    #[test]
    fn permutation_is_a_seeded_permutation() {
        let p = permutation(100, 7);
        let mut sorted = p.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
        assert_eq!(p, permutation(100, 7), "same seed, same order");
        assert_ne!(p, permutation(100, 8), "another seed, another order");
    }

    #[test]
    fn same_seed_gives_the_same_bytes() {
        let test = split(50);
        let a = batches(&test, 8, 3);
        let b = batches(&test, 8, 3);
        assert_eq!(a.len(), 6, "the short tail is dropped");
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.plain, y.plain);
            assert_eq!(x.with_truths, y.with_truths);
        }
        let c = batches(&test, 8, 4);
        assert!(a.iter().zip(&c).any(|(x, y)| x.plain != y.plain));
    }

    #[test]
    fn bodies_round_trip_through_the_wire_parser() {
        let test = split(16);
        for batch in batches(&test, 8, 1) {
            let text = std::str::from_utf8(&batch.with_truths).unwrap();
            let value = serde_json::parse(text).unwrap();
            let serde_json::Value::Array(rows) = value.field("features").unwrap() else {
                panic!("features is an array");
            };
            assert_eq!(rows.len(), 8);
            let serde_json::Value::Array(truths) = value.field("truths").unwrap() else {
                panic!("truths is an array");
            };
            for (t, want) in truths.iter().zip(&batch.truths) {
                let got = cardest::serve::value_to_f64(t).unwrap();
                assert_eq!(got.to_bits(), want.to_bits());
            }
            let plain = serde_json::parse(std::str::from_utf8(&batch.plain).unwrap()).unwrap();
            assert!(plain.field("truths").is_err());
        }
    }
}
