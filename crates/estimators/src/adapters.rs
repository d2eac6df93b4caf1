//! Adapters gluing the substrates to the conformal core.

use ce_conformal::Regressor;
use ce_gbdt::{Gbdt, GbdtConfig};
use ce_storage::Table;

use crate::featurize::SingleTableFeaturizer;
use crate::histogram::TableStatistics;

/// A [`ce_gbdt::Gbdt`] as a [`Regressor`] — used both as the locally-weighted
/// conformal difficulty model `U(X)` (the paper's xgboost role) and as a
/// quantile-regression baseline.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct GbdtModel(pub Gbdt);

impl Regressor for GbdtModel {
    fn predict(&self, features: &[f32]) -> f64 {
        self.0.predict(features) as f64
    }
}

/// Trains the difficulty model `ĝ(X) ≈ E[score magnitude | X]` on the
/// *training* split's scores, per Algorithm 3.
///
/// # Panics
/// Panics on empty input or mismatched lengths.
pub fn fit_difficulty_model(
    features: &[Vec<f32>],
    score_magnitudes: &[f64],
    config: &GbdtConfig,
) -> GbdtModel {
    assert_eq!(
        features.len(),
        score_magnitudes.len(),
        "feature/score count mismatch"
    );
    let y: Vec<f32> = score_magnitudes.iter().map(|&v| v as f32).collect();
    GbdtModel(Gbdt::fit(features, &y, config))
}

/// A query-driven gradient-boosted cardinality estimator: GBDT trained on
/// `(canonical features → log-selectivity)` pairs — the tree-based flavour
/// of supervised models the paper's taxonomy mentions alongside NN ones.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct GbdtCardinality {
    gbdt: Gbdt,
    sel_floor: f64,
}

impl GbdtCardinality {
    /// Trains on canonically-encoded queries and their selectivities.
    ///
    /// # Panics
    /// Panics on empty or mismatched inputs.
    pub fn fit(
        features: &[Vec<f32>],
        selectivities: &[f64],
        config: &GbdtConfig,
        sel_floor: f64,
    ) -> Self {
        assert_eq!(features.len(), selectivities.len(), "feature/target mismatch");
        assert!(!features.is_empty(), "empty training workload");
        let y: Vec<f32> = selectivities
            .iter()
            .map(|&s| s.max(sel_floor).ln() as f32)
            .collect();
        GbdtCardinality { gbdt: Gbdt::fit(features, &y, config), sel_floor }
    }
}

impl Regressor for GbdtCardinality {
    fn predict(&self, features: &[f32]) -> f64 {
        (self.gbdt.predict(features) as f64).exp().clamp(self.sel_floor, 1.0)
    }
}

/// The classical AVI single-table estimator as a [`Regressor`] over the
/// canonical encoding — the unmodified-optimizer baseline.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct AviModel {
    featurizer: SingleTableFeaturizer,
    stats: TableStatistics,
    sel_floor: f64,
}

impl AviModel {
    /// Collects statistics from `table`.
    pub fn build(table: &Table, sel_floor: f64) -> Self {
        AviModel {
            featurizer: SingleTableFeaturizer::new(table.schema().clone()),
            stats: TableStatistics::build(table),
            sel_floor,
        }
    }
}

impl Regressor for AviModel {
    fn predict(&self, features: &[f32]) -> f64 {
        let q = self.featurizer.decode(features);
        self.stats.avi_selectivity(&q).max(self.sel_floor)
    }
}

/// Difficulty via ensemble disagreement: the variance-derived spread of
/// several models' predictions on the same query — the paper's alternative
/// `U(X)` instantiation (ablation against the GBDT difficulty model).
#[derive(Debug, Clone)]
pub struct EnsembleSpread<M> {
    models: Vec<M>,
    floor: f64,
}

impl<M: Regressor> EnsembleSpread<M> {
    /// Wraps an ensemble (models trained with different seeds).
    ///
    /// # Panics
    /// Panics with fewer than 2 models or a non-positive floor.
    pub fn new(models: Vec<M>, floor: f64) -> Self {
        assert!(models.len() >= 2, "ensemble spread needs at least 2 models");
        assert!(floor > 0.0, "spread floor must be positive");
        EnsembleSpread { models, floor }
    }
}

impl<M: Regressor> Regressor for EnsembleSpread<M> {
    fn predict(&self, features: &[f32]) -> f64 {
        let preds: Vec<f64> =
            self.models.iter().map(|m| m.predict(features)).collect();
        let mean = preds.iter().sum::<f64>() / preds.len() as f64;
        let var = preds.iter().map(|p| (p - mean) * (p - mean)).sum::<f64>()
            / preds.len() as f64;
        var.sqrt().max(self.floor)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ce_datagen::dmv;
    use ce_query::{generate_workload, GeneratorConfig};
    use ce_storage::{ConjunctiveQuery, Predicate};

    #[test]
    fn gbdt_model_wraps_predictions() {
        let x: Vec<Vec<f32>> = (0..60).map(|i| vec![i as f32]).collect();
        let y: Vec<f64> = (0..60).map(|i| i as f64 * 3.0).collect();
        let model = fit_difficulty_model(&x, &y, &GbdtConfig::default());
        assert!((model.predict(&[30.0]) - 90.0).abs() < 15.0);
    }

    #[test]
    fn avi_model_round_trips_through_encoding() {
        let table = dmv(2000, 0);
        let model = AviModel::build(&table, 1e-9);
        let feat = SingleTableFeaturizer::new(table.schema().clone());
        let q = ConjunctiveQuery::new(vec![Predicate::eq(0, 0)]);
        let expected = TableStatistics::build(&table).avi_selectivity(&q);
        assert!((model.predict(&feat.encode(&q)) - expected).abs() < 1e-12);
    }

    #[test]
    fn avi_is_a_usable_point_estimator() {
        let table = dmv(3000, 1);
        let model = AviModel::build(&table, 1e-9);
        let feat = SingleTableFeaturizer::new(table.schema().clone());
        let w = generate_workload(&table, 100, &GeneratorConfig::default(), 2);
        // Single-predicate queries are estimated exactly by 1-D histograms.
        for lq in w.iter().filter(|lq| lq.query.len() == 1) {
            let est = model.predict(&feat.encode(&lq.query));
            assert!(
                (est - lq.selectivity).abs() < 1e-9,
                "1-pred AVI should be exact: {est} vs {}",
                lq.selectivity
            );
        }
    }

    #[test]
    fn ensemble_spread_is_low_when_models_agree() {
        let a = |f: &[f32]| f[0] as f64;
        let b = |f: &[f32]| f[0] as f64;
        let c = |f: &[f32]| f[0] as f64 + 10.0;
        let agree = EnsembleSpread::new(vec![a, b], 1e-6);
        assert_eq!(agree.predict(&[5.0]), 1e-6);
        let disagree = EnsembleSpread::new(vec![a, c], 1e-6);
        assert!(disagree.predict(&[5.0]) > 1.0);
    }

    #[test]
    #[should_panic(expected = "at least 2 models")]
    fn ensemble_rejects_single_model() {
        EnsembleSpread::new(vec![|f: &[f32]| f[0] as f64], 1e-6);
    }
}
