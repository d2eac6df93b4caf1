//! How often the serving chain runs its model. The wrappers share one copy
//! of the model, so a truth costs one forward pass however many score sets
//! it feeds, an interval costs one, and a batch costs one batched forward.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use cardest::conformal::{
    AbsoluteResidual, HealConfig, OnlineConformal, PiService, PiServiceConfig, Regressor,
    SelfHealingService,
};
use cardest::serve::ServeEngine;

/// The identity model `y = x[0]`, counting its single and batched calls.
#[derive(Clone, Default)]
struct Counting {
    predicts: Arc<AtomicUsize>,
    batches: Arc<AtomicUsize>,
}

impl Counting {
    /// `(predict calls, predict_batch calls)` since the last take.
    fn take(&self) -> (usize, usize) {
        (self.predicts.swap(0, Ordering::SeqCst), self.batches.swap(0, Ordering::SeqCst))
    }
}

impl Regressor for Counting {
    fn predict(&self, features: &[f32]) -> f64 {
        self.predicts.fetch_add(1, Ordering::SeqCst);
        f64::from(features[0])
    }

    fn predict_batch(&self, features: &[Vec<f32>]) -> Vec<f64> {
        self.batches.fetch_add(1, Ordering::SeqCst);
        features.iter().map(|f| f64::from(f[0])).collect()
    }
}

/// Query `i` of a stream whose truths jump by +5 from query 150 on, so the
/// service leaves Stable mode and the healing layer starts a refit.
fn point(i: usize) -> (Vec<f32>, f64) {
    let x = (i % 97) as f32;
    let noise = ((i * 37) % 21) as f64 / 10.0 - 1.0;
    let shift = if i >= 150 { 5.0 } else { 0.0 };
    (vec![x], f64::from(x) + noise + shift)
}

fn calibration() -> (Vec<Vec<f32>>, Vec<f64>) {
    (1000..1050).map(point).unzip()
}

fn service_config() -> PiServiceConfig {
    PiServiceConfig { window: 40, ..Default::default() }
}

fn heal_config() -> HealConfig {
    HealConfig { min_history: 20, cooldown_base: 40, ..Default::default() }
}

fn queries() -> Vec<Vec<f32>> {
    (0..8).map(|i| point(i).0).collect()
}

#[test]
fn pi_service_runs_one_forward_per_truth_interval_and_batch() {
    let model = Counting::default();
    let (cx, cy) = calibration();
    let mut svc = PiService::new(model.clone(), AbsoluteResidual, &cx, &cy, service_config());
    assert_eq!(model.take(), (cx.len(), 0), "one forward per calibration point");
    for i in 0..400 {
        let (x, y) = point(i);
        svc.observe(&x, y);
        assert_eq!(model.take(), (1, 0), "PiService::observe, truth {i}");
        svc.interval(&x);
        assert_eq!(model.take(), (1, 0), "PiService::interval, query {i}");
        let _ = svc.try_interval(&x);
        assert_eq!(model.take(), (1, 0), "PiService::try_interval, query {i}");
    }
    assert!(svc.shifts_detected() >= 1, "the stream must have crossed a mode switch");
    svc.predict_interval_batch(&queries());
    assert_eq!(model.take(), (0, 1), "PiService::predict_interval_batch");
    svc.try_interval_batch(&queries());
    assert_eq!(model.take(), (0, 1), "PiService::try_interval_batch");
}

#[test]
fn self_healing_service_runs_one_forward_per_truth() {
    let model = Counting::default();
    let (cx, cy) = calibration();
    let mut svc = SelfHealingService::new(
        model.clone(),
        AbsoluteResidual,
        &cx,
        &cy,
        service_config(),
        heal_config(),
    );
    model.take();
    for i in 0..400 {
        let (x, y) = point(i);
        svc.observe(&x, y);
        assert_eq!(model.take(), (1, 0), "SelfHealingService::observe, truth {i}");
        svc.interval(&x);
        assert_eq!(model.take(), (1, 0), "SelfHealingService::interval, query {i}");
    }
    assert!(!svc.history().is_empty(), "the stream must have driven the healing layer");
    svc.try_interval_batch(&queries());
    assert_eq!(model.take(), (0, 1), "SelfHealingService::try_interval_batch");
}

#[test]
fn serve_engine_runs_one_forward_per_truth_and_per_batch() {
    let model = Counting::default();
    let (cx, cy) = calibration();
    let healing = SelfHealingService::new(
        model.clone(),
        AbsoluteResidual,
        &cx,
        &cy,
        service_config(),
        heal_config(),
    );
    let engine = ServeEngine::new(healing, vec![], 1);
    model.take();
    for start in (0..400).step_by(8) {
        let (xs, ys): (Vec<Vec<f32>>, Vec<f64>) = (start..start + 8).map(point).unzip();
        assert!(engine.observe_all(&xs, &ys, None));
        assert_eq!(model.take(), (8, 0), "ServeEngine::observe_all, truths {start}..+8");
        engine.predict_batch(&xs);
        assert_eq!(model.take(), (0, 1), "ServeEngine::predict_batch at {start}");
    }
}

#[test]
fn standalone_online_conformal_runs_one_forward_per_call() {
    let model = Counting::default();
    let (cx, cy) = calibration();
    let mut oc = OnlineConformal::new(model.clone(), AbsoluteResidual, &cx, &cy, 0.1);
    assert_eq!(model.take(), (cx.len(), 0), "one forward per calibration point");
    for i in 0..50 {
        let (x, y) = point(i);
        oc.observe(&x, y);
        assert_eq!(model.take(), (1, 0), "OnlineConformal::observe, truth {i}");
        oc.interval(&x);
        assert_eq!(model.take(), (1, 0), "OnlineConformal::interval, query {i}");
    }
    oc.interval_batch(&queries());
    assert_eq!(model.take(), (0, 1), "OnlineConformal::interval_batch");
    oc.try_interval_batch(&queries());
    assert_eq!(model.take(), (0, 1), "OnlineConformal::try_interval_batch");
}
