//! Naru-style deep autoregressive cardinality estimator (Yang et al.).
//!
//! Data-driven and unsupervised: the joint distribution is factorized as
//! `P(A₁)·P(A₂|A₁)·…` with one conditional model per column — column 0 gets
//! a Laplace-smoothed empirical marginal, later columns get an MLP over
//! learned embeddings of the earlier columns' values, ending in a softmax.
//! Training maximizes likelihood over the *table rows* (no query workload),
//! which is why the paper can spend the whole labeled workload on conformal
//! calibration for this model.
//!
//! Range queries are answered by *progressive sampling* (Monte-Carlo
//! integration through the autoregressive chain), the paper's cited source of
//! range-query underestimation noise.

use ce_conformal::Regressor;
use ce_nn::{
    class_probability, softmax_cross_entropy, softmax_rows, AdamConfig, Embedding,
    Matrix, Mlp, MlpConfig, Tape,
};
use ce_storage::Table;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

use crate::featurize::SingleTableFeaturizer;

/// Naru hyper-parameters.
#[derive(Debug, Clone)]
pub struct NaruConfig {
    /// Embedding width per ancestor column.
    pub embed_dim: usize,
    /// Hidden width of each conditional MLP.
    pub hidden: usize,
    /// Training epochs over the table.
    pub epochs: usize,
    /// Minibatch size (rows).
    pub batch_size: usize,
    /// Adam learning rate.
    pub lr: f32,
    /// Progressive-sampling budget per query.
    pub samples: usize,
    /// Seed for init, shuffling, and inference sampling.
    pub seed: u64,
    /// Selectivity floor for predictions.
    pub sel_floor: f64,
}

impl Default for NaruConfig {
    fn default() -> Self {
        NaruConfig {
            embed_dim: 8,
            hidden: 48,
            epochs: 4,
            batch_size: 128,
            lr: 2e-3,
            samples: 100,
            seed: 0,
            sel_floor: 1e-7,
        }
    }
}

/// Conditional model of one column given all earlier columns.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
struct Conditional {
    embeddings: Vec<Embedding>, // one per ancestor column
    mlp: Mlp,                   // (ancestors * embed_dim) -> hidden -> domain
}

impl Conditional {
    /// Writes the input rows for a batch of ancestor prefixes into `out`,
    /// replacing what it held: each prefix's ancestor embeddings, in column
    /// order.
    fn write_inputs(&self, prefixes: &[&[u32]], out: &mut Vec<f32>) {
        out.clear();
        for prefix in prefixes {
            debug_assert_eq!(prefix.len(), self.embeddings.len());
            for (emb, &value) in self.embeddings.iter().zip(*prefix) {
                out.extend_from_slice(emb.lookup(value as usize));
            }
        }
    }

    /// Logits for a batch of prefixes.
    fn logits(&self, prefixes: &[&[u32]]) -> Matrix {
        let mut input = Vec::new();
        self.write_inputs(prefixes, &mut input);
        self.mlp.infer(&Matrix::from_vec(prefixes.len(), self.mlp.input_dim(), input))
    }

    /// One training step through the conditional's tape; returns the batch
    /// NLL.
    fn train_batch(&mut self, tape: &mut Tape, prefixes: &[&[u32]], targets: &[usize]) -> f32 {
        self.write_inputs(prefixes, tape.input_mut());
        let logits = self.mlp.forward(tape);
        let logits = Matrix::from_vec(prefixes.len(), self.mlp.output_dim(), logits.to_vec());
        let (nll, grad_logits) = softmax_cross_entropy(&logits, targets);
        tape.output_and_grad_mut().1.copy_from_slice(grad_logits.data());
        let grad_input = self.mlp.backward(tape, true);
        // Scatter the input gradient back into each ancestor's embedding.
        let e = self.embeddings[0].dim();
        let width = self.embeddings.len() * e;
        for (j, emb) in self.embeddings.iter_mut().enumerate() {
            let ids: Vec<usize> =
                prefixes.iter().map(|p| p[j] as usize).collect();
            let grad_rows: Vec<Vec<f32>> = grad_input
                .chunks_exact(width)
                .map(|row| row[j * e..(j + 1) * e].to_vec())
                .collect();
            emb.backward(&ids, &Matrix::from_rows(&grad_rows));
        }
        nll
    }
}

/// The trained Naru model.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct Naru {
    featurizer: SingleTableFeaturizer,
    marginal0: Vec<f64>,          // smoothed marginal of column 0
    conditionals: Vec<Conditional>, // columns 1..arity
    samples: usize,
    seed: u64,
    sel_floor: f64,
}

impl Naru {
    /// Trains the autoregressive model directly on `table` (unsupervised).
    ///
    /// # Panics
    /// Panics on an empty table or a single-column schema with zero rows.
    pub fn fit(table: &Table, config: &NaruConfig) -> Self {
        assert!(table.n_rows() > 0, "cannot fit Naru on an empty table");
        let arity = table.schema().arity();
        let mut rng = StdRng::seed_from_u64(config.seed);
        let adam = AdamConfig::with_lr(config.lr);

        // Column 0: Laplace-smoothed empirical marginal.
        let d0 = table.schema().domain(0) as usize;
        let mut counts = vec![1.0f64; d0];
        for &v in table.column(0) {
            counts[v as usize] += 1.0;
        }
        let total: f64 = counts.iter().sum();
        let marginal0: Vec<f64> = counts.into_iter().map(|c| c / total).collect();

        // Columns 1..: embedding + MLP conditionals.
        let mut conditionals = Vec::with_capacity(arity.saturating_sub(1));
        for i in 1..arity {
            let embeddings = (0..i)
                .map(|j| {
                    Embedding::new(
                        table.schema().domain(j) as usize,
                        config.embed_dim,
                        adam,
                        &mut rng,
                    )
                })
                .collect();
            let mlp = Mlp::new(
                i * config.embed_dim,
                &MlpConfig {
                    hidden: vec![config.hidden],
                    output_dim: table.schema().domain(i) as usize,
                    output_activation: ce_nn::Activation::Identity,
                    adam,
                },
                &mut rng,
            );
            conditionals.push(Conditional { embeddings, mlp });
        }

        let mut model = Naru {
            featurizer: SingleTableFeaturizer::new(table.schema().clone()),
            marginal0,
            conditionals,
            samples: config.samples,
            seed: config.seed,
            sel_floor: config.sel_floor,
        };

        // Maximum-likelihood training over shuffled rows.
        let n = table.n_rows();
        let mut order: Vec<usize> = (0..n).collect();
        let mut shuffle_rng = StdRng::seed_from_u64(config.seed.wrapping_add(1));
        let rows: Vec<Vec<u32>> = (0..n).map(|r| table.row(r)).collect();
        let mut tapes: Vec<Tape> = model.conditionals.iter().map(|_| Tape::new()).collect();
        for _ in 0..config.epochs {
            order.shuffle(&mut shuffle_rng);
            for chunk in order.chunks(config.batch_size) {
                for (i, (cond, tape)) in model.conditionals.iter_mut().zip(&mut tapes).enumerate() {
                    let col = i + 1;
                    let prefixes: Vec<&[u32]> =
                        chunk.iter().map(|&r| &rows[r][..col]).collect();
                    let targets: Vec<usize> =
                        chunk.iter().map(|&r| rows[r][col] as usize).collect();
                    cond.train_batch(tape, &prefixes, &targets);
                }
            }
        }
        model
    }

    /// Mean per-row negative log-likelihood on `table` (diagnostics/tests).
    pub fn mean_nll(&self, table: &Table, max_rows: usize) -> f64 {
        let n = table.n_rows().min(max_rows);
        let mut total = 0.0f64;
        for r in 0..n {
            let row = table.row(r);
            total -= self.marginal0[row[0] as usize].ln();
            for (i, cond) in self.conditionals.iter().enumerate() {
                let col = i + 1;
                let logits = cond.logits(&[&row[..col]]);
                let p = class_probability(&logits, 0, row[col] as usize).max(1e-12);
                total -= (p as f64).ln();
            }
        }
        total / n as f64
    }

    /// Exact likelihood of one fully-specified tuple under the model.
    pub fn tuple_probability(&self, tuple: &[u32]) -> f64 {
        assert_eq!(
            tuple.len(),
            self.conditionals.len() + 1,
            "tuple arity mismatch"
        );
        let mut p = self.marginal0[tuple[0] as usize];
        for (i, cond) in self.conditionals.iter().enumerate() {
            let col = i + 1;
            let logits = cond.logits(&[&tuple[..col]]);
            p *= class_probability(&logits, 0, tuple[col] as usize) as f64;
        }
        p
    }

    /// Selectivity estimate via progressive sampling, taking the canonical
    /// feature encoding (decoded internally — Naru is data-driven and needs
    /// the actual predicates).
    pub fn predict_selectivity(&self, features: &[f32]) -> f64 {
        let query = self.featurizer.decode(features);
        // Per-column constraint bounds.
        let arity = self.conditionals.len() + 1;
        let mut bounds: Vec<Option<(u32, u32)>> = vec![None; arity];
        for p in &query.predicates {
            bounds[p.column] = Some(p.op.bounds());
        }
        let Some(last) = bounds.iter().rposition(Option::is_some) else {
            return 1.0; // no predicates
        };

        // Deterministic per-query RNG: hash the feature bytes with the seed.
        let mut h = self.seed ^ 0xcbf29ce484222325;
        for &f in features {
            h = (h ^ f.to_bits() as u64).wrapping_mul(0x100000001b3);
        }
        let mut rng = StdRng::seed_from_u64(h);

        let s = self.samples;
        let mut weights = vec![1.0f64; s];
        let mut values: Vec<Vec<u32>> = vec![Vec::with_capacity(last + 1); s];

        // Column 0 from the exact marginal.
        for k in 0..s {
            let (w, v) = sample_with_constraint(&self.marginal0, bounds[0], &mut rng);
            weights[k] *= w;
            values[k].push(v);
        }

        // Later columns batched through the conditional MLPs.
        for (col, bound) in bounds.iter().enumerate().take(last + 1).skip(1) {
            let cond = &self.conditionals[col - 1];
            let alive: Vec<usize> = (0..s).filter(|&k| weights[k] > 0.0).collect();
            if alive.is_empty() {
                break;
            }
            let prefixes: Vec<&[u32]> =
                alive.iter().map(|&k| values[k].as_slice()).collect();
            let probs = softmax_rows(&cond.logits(&prefixes));
            for (row, &k) in alive.iter().enumerate() {
                let dist: Vec<f64> =
                    probs.row(row).iter().map(|&p| p as f64).collect();
                let (w, v) = sample_with_constraint(&dist, *bound, &mut rng);
                weights[k] *= w;
                values[k].push(v);
            }
            // Dead samples still need a placeholder to keep prefixes aligned.
            for vals in values.iter_mut() {
                if vals.len() < col + 1 {
                    vals.push(0);
                }
            }
        }
        let mean = weights.iter().sum::<f64>() / s as f64;
        mean.clamp(self.sel_floor, 1.0)
    }

    /// The sampling budget per query.
    pub fn samples(&self) -> usize {
        self.samples
    }

    /// Overrides the sampling budget (accuracy/latency knob for benches).
    pub fn set_samples(&mut self, samples: usize) {
        assert!(samples > 0, "need at least one sample");
        self.samples = samples;
    }
}

/// Draws a value from `dist`, restricted to `bounds` when present.
/// Returns `(probability mass of the constraint, sampled value)`.
fn sample_with_constraint(
    dist: &[f64],
    bounds: Option<(u32, u32)>,
    rng: &mut StdRng,
) -> (f64, u32) {
    match bounds {
        None => {
            // Unconstrained: mass 1, sample from the full distribution.
            (1.0, sample_index(dist, 0, dist.len() - 1, rng))
        }
        Some((lo, hi)) => {
            let (lo, hi) = (lo as usize, (hi as usize).min(dist.len() - 1));
            let mass: f64 = dist[lo..=hi].iter().sum();
            if mass <= 0.0 {
                return (0.0, lo as u32);
            }
            (mass, sample_index(dist, lo, hi, rng))
        }
    }
}

/// Samples an index in `[lo, hi]` proportional to `dist[lo..=hi]`.
fn sample_index(dist: &[f64], lo: usize, hi: usize, rng: &mut StdRng) -> u32 {
    let mass: f64 = dist[lo..=hi].iter().sum();
    let mut u: f64 = rng.gen::<f64>() * mass;
    for (i, &p) in dist[lo..=hi].iter().enumerate() {
        u -= p;
        if u <= 0.0 {
            return (lo + i) as u32;
        }
    }
    hi as u32
}

impl Regressor for Naru {
    fn predict(&self, features: &[f32]) -> f64 {
        self.predict_selectivity(features)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ce_datagen::dmv;
    use ce_query::{generate_workload, GeneratorConfig};
    use ce_storage::{ColumnKind, ConjunctiveQuery, Predicate, Schema};

    fn tiny_config() -> NaruConfig {
        NaruConfig { epochs: 6, samples: 200, ..Default::default() }
    }

    /// A small, strongly-structured table: b = (a * 2) % 8, c uniform noise.
    fn structured_table(n: usize, seed: u64) -> Table {
        let mut rng = StdRng::seed_from_u64(seed);
        let schema = Schema::from_specs(&[
            ("a", 8, ColumnKind::Categorical),
            ("b", 8, ColumnKind::Categorical),
            ("c", 4, ColumnKind::Categorical),
        ]);
        let a: Vec<u32> = (0..n).map(|_| rng.gen_range(0..8)).collect();
        let b: Vec<u32> = a.iter().map(|&v| (v * 2) % 8).collect();
        let c: Vec<u32> = (0..n).map(|_| rng.gen_range(0..4)).collect();
        Table::new(schema, vec![a, b, c])
    }

    #[test]
    fn training_reduces_nll() {
        let table = structured_table(2000, 1);
        let trained = Naru::fit(&table, &tiny_config());
        let untrained =
            Naru::fit(&table, &NaruConfig { epochs: 0, ..tiny_config() });
        let nll_t = trained.mean_nll(&table, 300);
        let nll_u = untrained.mean_nll(&table, 300);
        assert!(
            nll_t < nll_u - 0.5,
            "training should cut NLL: {nll_t:.3} vs {nll_u:.3}"
        );
    }

    #[test]
    fn learns_functional_dependence() {
        // P(b = 2a mod 8 | a) should be near 1 after training.
        let table = structured_table(2000, 2);
        let model = Naru::fit(&table, &tiny_config());
        let p_consistent = model.tuple_probability(&[3, 6, 0]);
        let p_inconsistent = model.tuple_probability(&[3, 5, 0]);
        assert!(
            p_consistent > 20.0 * p_inconsistent,
            "consistent {p_consistent:.6} vs inconsistent {p_inconsistent:.6}"
        );
    }

    #[test]
    fn point_query_estimates_match_truth() {
        let table = structured_table(4000, 3);
        let model = Naru::fit(&table, &tiny_config());
        let feat = SingleTableFeaturizer::new(table.schema().clone());
        let q = ConjunctiveQuery::new(vec![Predicate::eq(0, 2), Predicate::eq(1, 4)]);
        let truth = table.selectivity(&q);
        let est = model.predict_selectivity(&feat.encode(&q));
        let q_err = (est / truth).max(truth / est);
        assert!(q_err < 2.0, "est {est:.4} vs truth {truth:.4} (q {q_err:.2})");
    }

    #[test]
    fn range_query_estimates_are_reasonable() {
        let table = structured_table(4000, 4);
        let model = Naru::fit(&table, &tiny_config());
        let feat = SingleTableFeaturizer::new(table.schema().clone());
        let q = ConjunctiveQuery::new(vec![
            Predicate::range(0, 1, 4),
            Predicate::range(2, 0, 1),
        ]);
        let truth = table.selectivity(&q);
        let est = model.predict_selectivity(&feat.encode(&q));
        let q_err = (est / truth).max(truth / est);
        assert!(q_err < 2.5, "est {est:.4} vs truth {truth:.4} (q {q_err:.2})");
    }

    #[test]
    fn empty_query_predicts_one() {
        let table = structured_table(500, 5);
        let model = Naru::fit(&table, &NaruConfig { epochs: 1, ..tiny_config() });
        let feat = SingleTableFeaturizer::new(table.schema().clone());
        let enc = feat.encode(&ConjunctiveQuery::default());
        assert_eq!(model.predict_selectivity(&enc), 1.0);
    }

    #[test]
    fn inference_is_deterministic_per_query() {
        let table = structured_table(1000, 6);
        let model = Naru::fit(&table, &NaruConfig { epochs: 2, ..tiny_config() });
        let feat = SingleTableFeaturizer::new(table.schema().clone());
        let q = ConjunctiveQuery::new(vec![Predicate::eq(0, 1)]);
        let enc = feat.encode(&q);
        assert_eq!(model.predict_selectivity(&enc), model.predict_selectivity(&enc));
    }

    #[test]
    fn works_on_dmv_scale_schema() {
        // Smoke test on the 11-column DMV shape with a small budget.
        let table = dmv(1500, 7);
        let config = NaruConfig { epochs: 2, samples: 50, ..Default::default() };
        let model = Naru::fit(&table, &config);
        let feat = SingleTableFeaturizer::new(table.schema().clone());
        let w = generate_workload(&table, 20, &GeneratorConfig::default(), 8);
        for lq in &w {
            let est = model.predict_selectivity(&feat.encode(&lq.query));
            assert!((0.0..=1.0).contains(&est));
        }
    }
}
