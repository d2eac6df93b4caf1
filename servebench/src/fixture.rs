//! The serving stack under test, built exactly as a deployment builds it:
//! dataset, labelled workload, trained MSCN, conformal calibration, and the
//! `ServeEngine` chain with the library's defaults.
//!
//! The deployment is the same for every run (it is built from
//! [`DEPLOYMENT_SEED`]); a run's `--seed` draws only the traffic sent to it
//! (see [`crate::bodies`]). Run-to-run differences then come from the
//! traffic and the host, not from one seed training a better model than
//! another.

use cardest::conformal::{
    AbsoluteResidual, HealConfig, OnlineConformal, PiEstimator, PiService, PiServiceConfig,
    Regressor, SelfHealingService,
};
use cardest::estimators::{AviModel, Mscn};
use cardest::pipeline::{train_mscn, EncodedSet, SingleTableBench, SplitSpec};
use cardest::query::GeneratorConfig;
use cardest::serve::ServeEngine;

/// The engine type every workload serves.
pub type Engine = ServeEngine<Mscn, AbsoluteResidual>;

/// Seed of the table, the labelled queries and their split, and MSCN
/// training (the serving CLI's seed).
pub const DEPLOYMENT_SEED: u64 = 42;

/// Miscoverage target of every interval served (the paper's α).
pub const ALPHA: f64 = 0.1;

/// Size of the stack: table rows, labelled queries (split evenly into
/// train, calibration and test) and MSCN training epochs.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    /// Rows of the generated `dmv` table.
    pub rows: usize,
    /// Labelled queries generated before the three-way split.
    pub queries: usize,
    /// MSCN training epochs.
    pub epochs: usize,
}

impl Scale {
    /// The size every benchmark run uses.
    pub const STANDARD: Scale = Scale {
        rows: 20_000,
        queries: 3_000,
        epochs: 10,
    };
    /// A size small enough for the smoke test.
    pub const TINY: Scale = Scale {
        rows: 2_000,
        queries: 900,
        epochs: 1,
    };
}

/// A trained, calibrated stack; [`Fixture::engine`] wraps it in a fresh
/// serving chain each time it is called.
pub struct Fixture {
    /// Table, featurizer and the train / calibration / test splits.
    pub bench: SingleTableBench,
    /// The trained point model.
    pub model: Mscn,
    avi: AviModel,
}

impl Fixture {
    /// Generates the data, labels the queries and trains the model.
    pub fn build(scale: &Scale) -> Fixture {
        let seed = DEPLOYMENT_SEED;
        let table =
            cardest::datagen::by_name("dmv", scale.rows, seed).expect("dmv is a built-in dataset");
        let bench = SingleTableBench::prepare(
            table,
            scale.queries,
            &GeneratorConfig::low_selectivity(),
            SplitSpec::default(),
            seed,
        );
        let model = train_mscn(&bench.feat, &bench.train, scale.epochs, seed);
        let avi = AviModel::build(&bench.table, 1.0 / scale.rows as f64);
        Fixture { bench, model, avi }
    }

    /// The held-out queries every workload draws its requests from.
    pub fn test(&self) -> &EncodedSet {
        &self.bench.test
    }

    /// Width of one encoded query.
    pub fn dims(&self) -> usize {
        self.bench.test.x[0].len()
    }

    /// A freshly calibrated conformal service around the model.
    pub fn pi_service(&self) -> PiService<Mscn, AbsoluteResidual> {
        self.pi_service_over(self.model.clone())
    }

    /// A conformal service calibrated on the same split around any model.
    pub fn pi_service_over<M: Regressor + Clone>(
        &self,
        model: M,
    ) -> PiService<M, AbsoluteResidual> {
        let calib = &self.bench.calib;
        PiService::new(model, AbsoluteResidual, &calib.x, &calib.y, config())
    }

    /// A freshly calibrated self-healing service around the model.
    pub fn healing(&self) -> SelfHealingService<Mscn, AbsoluteResidual> {
        let calib = &self.bench.calib;
        SelfHealingService::new(
            self.model.clone(),
            AbsoluteResidual,
            &calib.x,
            &calib.y,
            config(),
            HealConfig::default(),
        )
    }

    /// The fallback chain behind the primary: conformal AVI.
    pub fn fallbacks(&self) -> Vec<Box<dyn PiEstimator>> {
        let calib = &self.bench.calib;
        vec![Box::new(OnlineConformal::new(
            self.avi.clone(),
            AbsoluteResidual,
            &calib.x,
            &calib.y,
            ALPHA,
        ))]
    }

    /// A fresh serving engine: self-healing primary, AVI fallback,
    /// input sanitizing and the conservative floor.
    pub fn engine(&self) -> Engine {
        ServeEngine::new(self.healing(), self.fallbacks(), self.dims())
    }
}

fn config() -> PiServiceConfig {
    PiServiceConfig {
        alpha: ALPHA,
        ..Default::default()
    }
}
