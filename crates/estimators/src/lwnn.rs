//! LW-NN: lightweight neural network over heuristic features (Dutt et al.).
//!
//! Instead of raw predicate encodings, LW-NN feeds a small MLP with cheap
//! heuristic features — per-column 1-D histogram selectivities and the AVI
//! product estimate — so the network only has to learn the *correction* on
//! top of a classical estimator. It is intentionally the least accurate of
//! the three models here (matching the paper's ranking), which makes it the
//! interesting stress case for prediction intervals.

use ce_conformal::Regressor;
use ce_nn::{AdamConfig, Mlp, MlpConfig, Mse, Pinball};
use ce_storage::Table;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::featurize::{SingleTableFeaturizer, BLOCK};
use crate::histogram::TableStatistics;
use crate::mscn::TrainLoss;

/// LW-NN hyper-parameters.
#[derive(Debug, Clone)]
pub struct LwNnConfig {
    /// Hidden layer width (kept small — it is a *lightweight* model).
    pub hidden: usize,
    /// Training epochs.
    pub epochs: usize,
    /// Minibatch size.
    pub batch_size: usize,
    /// Adam learning rate.
    pub lr: f32,
    /// Loss (point estimate or CQR quantile head).
    pub loss: TrainLoss,
    /// Seed.
    pub seed: u64,
    /// Selectivity floor.
    pub sel_floor: f64,
}

impl Default for LwNnConfig {
    fn default() -> Self {
        LwNnConfig {
            hidden: 24,
            epochs: 40,
            batch_size: 64,
            lr: 2e-3,
            loss: TrainLoss::LogMse,
            seed: 0,
            sel_floor: 1e-7,
        }
    }
}

/// The trained LW-NN model.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct LwNn {
    featurizer: SingleTableFeaturizer,
    stats: TableStatistics,
    mlp: Mlp,
    sel_floor: f64,
}

impl LwNn {
    /// Heuristic feature width: per column `[has, is_point, lo, hi,
    /// hist_sel]` plus `[log_avi, predicate_count]`.
    pub fn heuristic_width(arity: usize) -> usize {
        arity * (BLOCK + 1) + 2
    }

    /// Converts a canonical encoding into LW-NN's heuristic features.
    fn heuristic_features(&self, features: &[f32]) -> Vec<f32> {
        let arity = self.featurizer.schema().arity();
        let mut out = Vec::with_capacity(Self::heuristic_width(arity));
        let mut log_avi = 0.0f64;
        let mut n_preds = 0.0f32;
        for c in 0..arity {
            let block = &features[c * BLOCK..(c + 1) * BLOCK];
            out.extend_from_slice(block);
            if block[0] >= 0.5 {
                let domain = self.featurizer.schema().domain(c);
                let scale = (domain.max(2) - 1) as f32;
                let lo = (block[2] * scale).round() as u32;
                let hi = if block[1] >= 0.5 {
                    lo
                } else {
                    (block[3] * scale).round().max(block[2] * scale) as u32
                };
                let sel = self.stats.column(c).selectivity(lo, hi.min(domain - 1));
                out.push(sel as f32);
                log_avi += sel.max(1e-12).ln();
                n_preds += 1.0;
            } else {
                out.push(1.0); // unconstrained column passes everything
            }
        }
        // Normalize log-AVI into a modest numeric range.
        out.push((log_avi / 20.0) as f32);
        out.push(n_preds / arity as f32);
        out
    }

    /// Trains LW-NN on canonically-encoded queries and their selectivities.
    ///
    /// `table` supplies the 1-D statistics the heuristic features need.
    ///
    /// # Panics
    /// Panics on empty input or mismatched lengths.
    pub fn fit(
        table: &Table,
        features: &[Vec<f32>],
        selectivities: &[f64],
        config: &LwNnConfig,
    ) -> Self {
        assert!(!features.is_empty(), "cannot train LW-NN on an empty workload");
        assert_eq!(features.len(), selectivities.len(), "feature/target mismatch");
        let featurizer = SingleTableFeaturizer::new(table.schema().clone());
        let stats = TableStatistics::build(table);
        let mut rng = StdRng::seed_from_u64(config.seed);
        let mlp = Mlp::new(
            Self::heuristic_width(table.schema().arity()),
            &MlpConfig {
                hidden: vec![config.hidden],
                adam: AdamConfig::with_lr(config.lr),
                ..Default::default()
            },
            &mut rng,
        );
        let mut model = LwNn { featurizer, stats, mlp, sel_floor: config.sel_floor };

        let x: Vec<Vec<f32>> =
            features.iter().map(|f| model.heuristic_features(f)).collect();
        let xm = ce_nn::Matrix::from_rows(&x);
        let y: Vec<f32> = selectivities
            .iter()
            .map(|&s| s.max(config.sel_floor).ln() as f32)
            .collect();
        match config.loss {
            TrainLoss::LogMse => {
                model.mlp.fit(
                    &xm,
                    &y,
                    &Mse,
                    config.epochs,
                    config.batch_size,
                    config.seed.wrapping_add(1),
                );
            }
            TrainLoss::Pinball(tau) => {
                model.mlp.fit(
                    &xm,
                    &y,
                    &Pinball::new(tau),
                    config.epochs,
                    config.batch_size,
                    config.seed.wrapping_add(1),
                );
            }
        }
        model
    }

    /// Predicted log-selectivity for one canonical encoding.
    pub fn predict_log_selectivity(&self, features: &[f32]) -> f64 {
        let h = self.heuristic_features(features);
        self.mlp.predict_one(&h) as f64
    }

    /// Predicted selectivity, clamped to `[sel_floor, 1]`.
    pub fn predict_selectivity(&self, features: &[f32]) -> f64 {
        self.predict_log_selectivity(features).exp().clamp(self.sel_floor, 1.0)
    }
}

impl Regressor for LwNn {
    fn predict(&self, features: &[f32]) -> f64 {
        self.predict_selectivity(features)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ce_datagen::{dmv, power};
    use ce_query::{generate_workload, GeneratorConfig};

    fn setup(
        table: &Table,
        n: usize,
        epochs: usize,
    ) -> (LwNn, SingleTableFeaturizer, Vec<Vec<f32>>, Vec<f64>) {
        let feat = SingleTableFeaturizer::new(table.schema().clone());
        let w = generate_workload(table, n, &GeneratorConfig::default(), 1);
        let x: Vec<Vec<f32>> = w.iter().map(|lq| feat.encode(&lq.query)).collect();
        let y: Vec<f64> = w.iter().map(|lq| lq.selectivity).collect();
        let config = LwNnConfig { epochs, ..Default::default() };
        let model = LwNn::fit(table, &x, &y, &config);
        (model, feat, x, y)
    }

    fn geo_q(model: &LwNn, x: &[Vec<f32>], y: &[f64]) -> f64 {
        let mut acc = 0.0;
        for (f, &t) in x.iter().zip(y) {
            acc += ce_conformal::q_error(model.predict_selectivity(f), t, 1e-7).ln();
        }
        (acc / x.len() as f64).exp()
    }

    #[test]
    fn learns_on_range_heavy_power_dataset() {
        // LW-NN targets range predicates; the all-numeric Power table is its
        // home turf.
        let table = power(4000, 0);
        let (model, _, x, y) = setup(&table, 500, 50);
        let q = geo_q(&model, &x, &y);
        assert!(q < 6.0, "training geo-mean q-error {q:.2}");
    }

    #[test]
    fn beats_untrained_baseline() {
        let table = dmv(3000, 0);
        let (trained, _, x, y) = setup(&table, 400, 40);
        let (untrained, _, _, _) = setup(&table, 400, 0);
        assert!(geo_q(&trained, &x, &y) < geo_q(&untrained, &x, &y));
    }

    #[test]
    fn generalizes_to_heldout() {
        let table = power(4000, 0);
        let (model, feat, _, _) = setup(&table, 600, 50);
        let held = generate_workload(&table, 150, &GeneratorConfig::default(), 42);
        let x: Vec<Vec<f32>> = held.iter().map(|lq| feat.encode(&lq.query)).collect();
        let y: Vec<f64> = held.iter().map(|lq| lq.selectivity).collect();
        let q = geo_q(&model, &x, &y);
        assert!(q < 20.0, "held-out geo-mean q-error {q:.2}");
    }

    #[test]
    fn predictions_are_valid_selectivities() {
        let table = dmv(1000, 0);
        let (model, _, x, _) = setup(&table, 100, 5);
        for f in &x {
            let s = model.predict_selectivity(f);
            assert!((0.0..=1.0).contains(&s) && s > 0.0);
        }
    }

    #[test]
    fn heuristic_width_matches_feature_builder() {
        let table = dmv(500, 0);
        let (model, feat, _, _) = setup(&table, 50, 1);
        let w = generate_workload(&table, 5, &GeneratorConfig::default(), 7);
        for lq in &w {
            let enc = feat.encode(&lq.query);
            assert_eq!(
                model.heuristic_features(&enc).len(),
                LwNn::heuristic_width(table.schema().arity())
            );
        }
    }
}
