//! Threads a registry server starts, counted from `/proc/self/task`.
//!
//! Micro-batching runs on the submitting threads, so registering a model
//! starts no thread, and a server's thread count does not grow with the
//! number of models it serves. This file holds one test so nothing else
//! starts threads in the process while it counts.

#![cfg(target_os = "linux")]

use std::sync::Arc;

use cardest::conformal::{AbsoluteResidual, HealConfig, PiServiceConfig, SelfHealingService};
use cardest::serve::{HttpServeConfig, ServeEngine, ServeHandle};
use cardest::tenant::{start_registry_server, ModelRegistry, RegistryTuning};

fn threads() -> usize {
    std::fs::read_dir("/proc/self/task").expect("list this process's threads").count()
}

type Model = fn(&[f32]) -> f64;

fn engine() -> ServeEngine<Model, AbsoluteResidual> {
    let xs: Vec<Vec<f32>> = (0..64).map(|i| vec![i as f32 / 64.0]).collect();
    let ys: Vec<f64> = xs.iter().map(|x| f64::from(x[0]) + 0.02).collect();
    let model: Model = |f| f64::from(f[0]);
    let healing = SelfHealingService::new(
        model,
        AbsoluteResidual,
        &xs,
        &ys,
        PiServiceConfig::default(),
        HealConfig::default(),
    );
    ServeEngine::new(healing, Vec::new(), 1)
}

/// Registers `models` models, then starts a server over them; returns the
/// threads each step started and the running server.
fn register_then_serve(models: usize) -> (usize, usize, ServeHandle) {
    let registry = Arc::new(ModelRegistry::new(RegistryTuning::default()));
    let engines: Vec<_> = (0..models).map(|_| engine()).collect();
    let before = threads();
    for (i, engine) in engines.into_iter().enumerate() {
        registry.register(&format!("m{i}"), engine);
    }
    let registered = threads();
    let handle = start_registry_server(registry, "127.0.0.1:0", HttpServeConfig::default())
        .expect("bind loopback server");
    (registered - before, threads() - registered, handle)
}

#[test]
fn models_start_no_threads() {
    let (registering_three, serving_three, _three) = register_then_serve(3);
    assert_eq!(registering_three, 0, "registering 3 models started threads");
    let (registering_one, serving_one, _one) = register_then_serve(1);
    assert_eq!(registering_one, 0, "registering 1 model started threads");
    assert_eq!(serving_three, serving_one, "server threads grew with the model count");
}
