//! MSCN-style set-based supervised cardinality estimator (Kipf et al.).
//!
//! The real MSCN encodes a query as sets (tables, joins, predicates), runs a
//! small MLP over each set element, average-pools per set, and feeds the
//! pooled vectors into an output network. This reproduction keeps that
//! architecture: a per-predicate module over `[column one-hot, is_point, lo,
//! hi]` vectors, mean pooling, and a top network that also sees the query's
//! context vector (join flags for star queries). Training minimizes squared
//! error in log-selectivity space — the smooth surrogate of the mean-q-error
//! objective — or a pinball loss when used as a CQR quantile head.

use std::cell::RefCell;

use ce_conformal::Regressor;
use ce_nn::{
    segment_mean_backward_into, segment_mean_into, AdamConfig, Loss, Mlp, MlpConfig, Mse,
    Pinball, Tape,
};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use crate::featurize::{SingleTableFeaturizer, StarFeaturizer, BLOCK};

/// Mul-adds per batch-forward task. On a 2-vCPU AVX-512 host the kernel
/// runs 18–33 mul-adds per ns, so a task takes 8–14 µs: five times or more
/// the 1.3–1.7 µs the pool needs to hand a task to a worker.
const TASK_FLOPS: usize = 1 << 18;

/// Which loss the output head trains with.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TrainLoss {
    /// Squared error on log-selectivity (the point-estimate model).
    LogMse,
    /// Pinball loss at quantile `tau` (a CQR quantile head).
    Pinball(f32),
}

/// MSCN hyper-parameters.
#[derive(Debug, Clone)]
pub struct MscnConfig {
    /// Hidden width of both the predicate module and the top network.
    pub hidden: usize,
    /// Training epochs.
    pub epochs: usize,
    /// Minibatch size.
    pub batch_size: usize,
    /// Adam learning rate.
    pub lr: f32,
    /// Loss (point estimate or quantile head).
    pub loss: TrainLoss,
    /// Seed for init and shuffling.
    pub seed: u64,
    /// Selectivity floor (1 tuple / N); also the prediction clamp.
    pub sel_floor: f64,
}

impl Default for MscnConfig {
    fn default() -> Self {
        MscnConfig {
            hidden: 64,
            epochs: 60,
            batch_size: 64,
            lr: 1e-3,
            loss: TrainLoss::LogMse,
            seed: 0,
            sel_floor: 1e-7,
        }
    }
}

/// How queries are laid out in the canonical feature encoding.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub enum MscnLayout {
    /// Single-table queries.
    Single(SingleTableFeaturizer),
    /// Star-join queries (context = join flags).
    Star(StarFeaturizer),
}

impl MscnLayout {
    /// Number of distinct predicate columns (one-hot width).
    fn n_columns(&self) -> usize {
        match self {
            MscnLayout::Single(f) => f.schema().arity(),
            MscnLayout::Star(f) => f.total_columns(),
        }
    }

    /// Context vector width (0 for single table, n_dims for star).
    fn context_width(&self) -> usize {
        match self {
            MscnLayout::Single(_) => 1, // predicate-count scalar
            MscnLayout::Star(f) => f.n_dims(),
        }
    }

    /// Canonical encoding width.
    pub fn feature_width(&self) -> usize {
        match self {
            MscnLayout::Single(f) => f.width(),
            MscnLayout::Star(f) => f.width(),
        }
    }

    /// Calls `f(column, [is_point, lo, hi])` for each predicate of one
    /// canonical encoding, in column order.
    fn for_each_predicate(&self, features: &[f32], mut f: impl FnMut(usize, &[f32])) {
        match self {
            MscnLayout::Single(t) => {
                assert_eq!(features.len(), t.width(), "feature width mismatch");
                for (c, block) in features.chunks_exact(BLOCK).enumerate() {
                    if block[0] < 0.5 {
                        continue;
                    }
                    f(c, &block[1..]);
                }
            }
            MscnLayout::Star(t) => {
                assert_eq!(features.len(), t.width(), "feature width mismatch");
                for (g, block) in t.predicate_blocks(features) {
                    f(g, &block[1..]);
                }
            }
        }
    }

    /// Writes the context vector of one canonical encoding with
    /// `predicates` predicates: the predicate share of the schema (single
    /// table) or the join flags (star).
    fn write_context(&self, features: &[f32], predicates: usize, out: &mut [f32]) {
        match self {
            MscnLayout::Single(t) => out[0] = predicates as f32 / t.schema().arity() as f32,
            MscnLayout::Star(t) => out.copy_from_slice(t.join_flags(features)),
        }
    }
}

/// The buffers a forward task packs and computes in. Each thread keeps one
/// in [`WORKSPACE`], sized on first use and never shrunk, so a warm forward
/// allocates nothing but its result.
struct Workspace {
    /// Predicates per query.
    segments: Vec<usize>,
    /// Every predicate row, `[column one-hot, is_point, lo, hi]`, flat.
    preds: Vec<f32>,
    /// Top-network input rows: the pooled predicates, then the context.
    top_in: Vec<f32>,
    /// The two activation buffers both networks run through.
    out: Vec<f32>,
    scratch: Vec<f32>,
}

impl Workspace {
    const fn new() -> Self {
        Workspace {
            segments: Vec::new(),
            preds: Vec::new(),
            top_in: Vec::new(),
            out: Vec::new(),
            scratch: Vec::new(),
        }
    }
}

thread_local! {
    /// This thread's forward workspace; pool workers keep their own.
    static WORKSPACE: RefCell<Workspace> = const { RefCell::new(Workspace::new()) };
}

/// What a fit trains through: one [`Tape`] per network, whose inputs the
/// batches are packed straight into, and the batch's segments and targets.
/// Made once per fit; every buffer keeps its capacity across batches, so
/// once they fit the largest batch a step allocates nothing.
#[derive(Default)]
struct Training {
    pred: Tape,
    top: Tape,
    segments: Vec<usize>,
    targets: Vec<f32>,
}

/// The trained MSCN model.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct Mscn {
    layout: MscnLayout,
    pred_mlp: Mlp,
    top_mlp: Mlp,
    hidden: usize,
    sel_floor: f64,
}

impl Mscn {
    /// Trains MSCN on canonically-encoded queries and their selectivities.
    ///
    /// # Panics
    /// Panics on empty input, mismatched lengths, or selectivities outside
    /// `[0, 1]`.
    pub fn fit(
        layout: MscnLayout,
        features: &[Vec<f32>],
        selectivities: &[f64],
        config: &MscnConfig,
    ) -> Self {
        assert!(!features.is_empty(), "cannot train MSCN on an empty workload");
        assert_eq!(features.len(), selectivities.len(), "feature/target mismatch");
        assert!(
            selectivities.iter().all(|&s| (0.0..=1.0).contains(&s)),
            "selectivities must be in [0,1]"
        );
        let mut rng = StdRng::seed_from_u64(config.seed);
        let pred_width = layout.n_columns() + 3;
        let adam = AdamConfig::with_lr(config.lr);
        let pred_mlp = Mlp::new(
            pred_width,
            &MlpConfig {
                hidden: vec![config.hidden],
                output_dim: config.hidden,
                output_activation: ce_nn::Activation::Relu,
                adam,
            },
            &mut rng,
        );
        let top_mlp = Mlp::new(
            config.hidden + layout.context_width(),
            &MlpConfig { hidden: vec![config.hidden], adam, ..Default::default() },
            &mut rng,
        );
        let mut model = Mscn {
            layout,
            pred_mlp,
            top_mlp,
            hidden: config.hidden,
            sel_floor: config.sel_floor,
        };
        let targets: Vec<f32> = selectivities
            .iter()
            .map(|&s| s.max(config.sel_floor).ln() as f32)
            .collect();

        let mut order: Vec<usize> = (0..features.len()).collect();
        let mut shuffle_rng = StdRng::seed_from_u64(config.seed.wrapping_add(1));
        let mut training = Training::default();
        for _ in 0..config.epochs {
            order.shuffle(&mut shuffle_rng);
            for chunk in order.chunks(config.batch_size) {
                model.train_batch(&mut training, features, &targets, chunk, config.loss);
            }
        }
        model
    }

    /// One minibatch step through the fit's tapes.
    fn train_batch(
        &mut self,
        tr: &mut Training,
        features: &[Vec<f32>],
        targets: &[f32],
        batch: &[usize],
        loss: TrainLoss,
    ) {
        let queries = batch.iter().map(|&i| features[i].as_slice());
        self.pack(queries, &mut tr.segments, tr.pred.input_mut(), tr.top.input_mut());

        // Forward: predicate module -> pool -> (with context) top.
        let pooled = self.pred_mlp.forward(&mut tr.pred);
        segment_mean_into(pooled, self.hidden, &tr.segments, tr.top.input_mut());
        self.top_mlp.forward(&mut tr.top);

        // Loss gradient on log-selectivity.
        tr.targets.clear();
        tr.targets.extend(batch.iter().map(|&i| targets[i]));
        let (preds, grad) = tr.top.output_and_grad_mut();
        match loss {
            TrainLoss::LogMse => Mse.mean_grad_into(preds, &tr.targets, grad),
            TrainLoss::Pinball(tau) => Pinball::new(tau).mean_grad_into(preds, &tr.targets, grad),
        }

        // Backward through top, split the pooled gradient over each query's
        // predicate rows, and backward through the predicate module, whose
        // input gradient nothing uses.
        let grad_top_in = self.top_mlp.backward(&mut tr.top, true);
        let (pred_rows, pred_grad) = tr.pred.output_and_grad_mut();
        segment_mean_backward_into(grad_top_in, self.hidden, &tr.segments, pred_grad);
        if !pred_rows.is_empty() {
            self.pred_mlp.backward(&mut tr.pred, false);
        }
    }

    /// Packs encoded queries for a forward pass: each one's predicate count
    /// into `segments`, every predicate row (`[column one-hot, is_point, lo,
    /// hi]`) into `preds`, and the top-network input rows, with each
    /// query's context already in the tail, into `top_in`. The pooled head
    /// of each top row is left for the forward pass. The three are cleared
    /// first and keep their capacity.
    fn pack<'q>(
        &self,
        queries: impl Iterator<Item = &'q [f32]>,
        segments: &mut Vec<usize>,
        preds: &mut Vec<f32>,
        top_in: &mut Vec<f32>,
    ) {
        let n_cols = self.layout.n_columns();
        let width = self.pred_mlp.input_dim();
        let top_width = self.top_mlp.input_dim();
        segments.clear();
        preds.clear();
        top_in.clear();
        for features in queries {
            let start = preds.len();
            self.layout.for_each_predicate(features, |column, block| {
                let row = preds.len();
                preds.resize(row + width, 0.0);
                preds[row + column] = 1.0;
                preds[row + n_cols..row + width].copy_from_slice(block);
            });
            let count = (preds.len() - start) / width;
            segments.push(count);
            let row = top_in.len();
            top_in.resize(row + top_width, 0.0);
            self.layout.write_context(features, count, &mut top_in[row + self.hidden..]);
        }
    }

    /// The forward of one task, run serially in this thread's workspace:
    /// pack `queries`, run the predicate network over all their predicate
    /// rows, mean-pool each query's rows into the head of its top-network
    /// input row, run the top network, and write each query's
    /// log-selectivity to `out`. A query's rows see the same arithmetic
    /// whichever queries share its task, so its output does not depend on
    /// how a batch is cut.
    fn forward_task<Q: AsRef<[f32]>>(&self, queries: &[Q], out: &mut [f64]) {
        WORKSPACE.with_borrow_mut(|ws| {
            let queries = queries.iter().map(AsRef::as_ref);
            self.pack(queries, &mut ws.segments, &mut ws.preds, &mut ws.top_in);
            let pooled = self.pred_mlp.infer_rows(&ws.preds, &mut ws.out, &mut ws.scratch);
            segment_mean_into(pooled, self.hidden, &ws.segments, &mut ws.top_in);
            let log_sel = self.top_mlp.infer_rows(&ws.top_in, &mut ws.out, &mut ws.scratch);
            for (o, &v) in out.iter_mut().zip(log_sel) {
                *o = f64::from(v);
            }
        });
    }

    /// Queries per forward task. Enough that a task's products reach about
    /// [`TASK_FLOPS`] mul-adds even if every query had one predicate (one
    /// row through each network, about one mul-add per parameter), and
    /// never fewer than 8, so an 8-query batch is one inline task. Depends
    /// only on the model's shape, never on the batch or the thread count.
    fn queries_per_task(&self) -> usize {
        let per_query = self.pred_mlp.parameter_count() + self.top_mlp.parameter_count();
        TASK_FLOPS.div_ceil(per_query).max(8)
    }

    /// Predicted log-selectivity for one encoded query: the batch forward's
    /// task over a single query, with no pool dispatch.
    pub fn predict_log_selectivity(&self, features: &[f32]) -> f64 {
        let mut out = [0.0];
        self.forward_task(std::slice::from_ref(&features), &mut out);
        out[0]
    }

    /// Predicted selectivity, clamped to `[sel_floor, 1]`.
    pub fn predict_selectivity(&self, features: &[f32]) -> f64 {
        self.predict_log_selectivity(features).exp().clamp(self.sel_floor, 1.0)
    }

    /// Predicted log-selectivities for a whole batch of encoded queries. The
    /// batch is cut at query boundaries into tasks of a query count derived
    /// from the model's shape (about `TASK_FLOPS`, 2¹⁸, mul-adds each, and at
    /// least 8 queries), dispatched once over the `ce-parallel` pool; a
    /// batch that fits one task runs inline on the caller. Each task packs
    /// its queries' predicate rows into one flat buffer, runs the predicate
    /// network once over them, segment-pools straight into the top
    /// network's input rows (which already carry each query's context) and
    /// runs the top network once, all in its thread's reused workspace.
    ///
    /// Output `i` is bit-identical to `predict_log_selectivity(&queries[i])`
    /// at any thread count — matmul rows and segment means accumulate
    /// independently per query — but the batch amortizes weight traffic and
    /// dispatch across its queries, which is what makes the serving path's
    /// micro-batching pay off below it. A warm call allocates only its
    /// result and the pool's per-dispatch bookkeeping.
    pub fn predict_log_selectivity_batch(&self, queries: &[Vec<f32>]) -> Vec<f64> {
        let mut out = vec![0.0; queries.len()];
        let per_task = self.queries_per_task();
        ce_parallel::par_chunks_mut(&mut out, per_task, |task, out| {
            self.forward_task(&queries[task * per_task..][..out.len()], out);
        });
        out
    }

    /// Batched [`Mscn::predict_selectivity`]; see
    /// [`Mscn::predict_log_selectivity_batch`] for the identity guarantee.
    pub fn predict_selectivity_batch(&self, queries: &[Vec<f32>]) -> Vec<f64> {
        self.predict_log_selectivity_batch(queries)
            .into_iter()
            .map(|log_sel| log_sel.exp().clamp(self.sel_floor, 1.0))
            .collect()
    }

    /// The layout this model was trained with.
    pub fn layout(&self) -> &MscnLayout {
        &self.layout
    }
}

impl Regressor for Mscn {
    fn predict(&self, features: &[f32]) -> f64 {
        self.predict_selectivity(features)
    }

    fn predict_batch(&self, features: &[Vec<f32>]) -> Vec<f64> {
        self.predict_selectivity_batch(features)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ce_datagen::dmv;
    use ce_query::{generate_workload, GeneratorConfig};

    fn trained_mscn(
        n_train: usize,
        epochs: usize,
    ) -> (Mscn, SingleTableFeaturizer, Vec<Vec<f32>>, Vec<f64>) {
        let table = dmv(4000, 0);
        let feat = SingleTableFeaturizer::new(table.schema().clone());
        let w = generate_workload(&table, n_train, &GeneratorConfig::default(), 1);
        let x: Vec<Vec<f32>> = w.iter().map(|lq| feat.encode(&lq.query)).collect();
        let y: Vec<f64> = w.iter().map(|lq| lq.selectivity).collect();
        let config = MscnConfig { epochs, ..Default::default() };
        let model = Mscn::fit(
            MscnLayout::Single(feat.clone()),
            &x,
            &y,
            &config,
        );
        (model, feat, x, y)
    }

    fn geo_mean_q_error(model: &Mscn, x: &[Vec<f32>], y: &[f64]) -> f64 {
        let mut acc = 0.0;
        for (f, &t) in x.iter().zip(y) {
            acc += ce_conformal::q_error(model.predict_selectivity(f), t, 1e-7).ln();
        }
        (acc / x.len() as f64).exp()
    }

    #[test]
    fn learns_better_than_untrained_on_training_set() {
        let (trained, _, x, y) = trained_mscn(400, 40);
        let (untrained, _, _, _) = trained_mscn(400, 0);
        let qt = geo_mean_q_error(&trained, &x, &y);
        let qu = geo_mean_q_error(&untrained, &x, &y);
        assert!(
            qt < qu * 0.7,
            "training should reduce q-error: trained {qt:.2} vs untrained {qu:.2}"
        );
        assert!(qt < 8.0, "geo-mean q-error too high: {qt:.2}");
    }

    #[test]
    fn generalizes_to_heldout_queries() {
        let (model, feat, _, _) = trained_mscn(600, 50);
        let table = dmv(4000, 0);
        let held = generate_workload(&table, 150, &GeneratorConfig::default(), 99);
        let x: Vec<Vec<f32>> = held.iter().map(|lq| feat.encode(&lq.query)).collect();
        let y: Vec<f64> = held.iter().map(|lq| lq.selectivity).collect();
        let q = geo_mean_q_error(&model, &x, &y);
        assert!(q < 15.0, "held-out geo-mean q-error {q:.2}");
    }

    #[test]
    fn predictions_are_valid_selectivities() {
        let (model, _, x, _) = trained_mscn(200, 10);
        for f in &x {
            let s = model.predict_selectivity(f);
            assert!((0.0..=1.0).contains(&s), "selectivity {s}");
            assert!(s > 0.0);
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let (a, _, x, _) = trained_mscn(100, 5);
        let (b, _, _, _) = trained_mscn(100, 5);
        assert_eq!(a.predict_selectivity(&x[0]), b.predict_selectivity(&x[0]));
    }

    #[test]
    fn quantile_heads_bracket_the_median_head() {
        let table = dmv(4000, 0);
        let feat = SingleTableFeaturizer::new(table.schema().clone());
        let w = generate_workload(&table, 500, &GeneratorConfig::default(), 1);
        let x: Vec<Vec<f32>> = w.iter().map(|lq| feat.encode(&lq.query)).collect();
        let y: Vec<f64> = w.iter().map(|lq| lq.selectivity).collect();
        let layout = MscnLayout::Single(feat);
        let lo = Mscn::fit(
            layout.clone(),
            &x,
            &y,
            &MscnConfig { loss: TrainLoss::Pinball(0.05), epochs: 40, ..Default::default() },
        );
        let hi = Mscn::fit(
            layout,
            &x,
            &y,
            &MscnConfig { loss: TrainLoss::Pinball(0.95), epochs: 40, ..Default::default() },
        );
        // On average over the workload the upper head sits above the lower.
        let mean_gap: f64 = x
            .iter()
            .map(|f| hi.predict_log_selectivity(f) - lo.predict_log_selectivity(f))
            .sum::<f64>()
            / x.len() as f64;
        assert!(mean_gap > 0.0, "upper head below lower head: {mean_gap}");
        // And the bracket contains the truth reasonably often.
        let covered = x
            .iter()
            .zip(&y)
            .filter(|(f, &t)| {
                let l = lo.predict_selectivity(f);
                let h = hi.predict_selectivity(f);
                l <= t && t <= h
            })
            .count() as f64
            / x.len() as f64;
        assert!(covered > 0.5, "raw quantile band coverage {covered}");
    }

    #[test]
    #[should_panic(expected = "empty workload")]
    fn rejects_empty_training_set() {
        let table = dmv(100, 0);
        let feat = SingleTableFeaturizer::new(table.schema().clone());
        Mscn::fit(MscnLayout::Single(feat), &[], &[], &MscnConfig::default());
    }

    /// The chunked batch forward against the per-query forward, `to_bits`:
    /// batch sizes around the task size and the SIMD register blocks, at
    /// several thread counts, with queries that have no predicates mixed in.
    fn assert_chunked_forward_matches_per_query(model: &Mscn, x: &[Vec<f32>]) {
        let no_predicates = vec![0.0; model.layout().feature_width()];
        model.layout().for_each_predicate(&no_predicates, |_, _| panic!("a predicate"));
        let pool: Vec<Vec<f32>> = x
            .iter()
            .enumerate()
            .flat_map(|(i, q)| {
                let extra = (i % 5 == 0).then(|| no_predicates.clone());
                std::iter::once(q.clone()).chain(extra)
            })
            .collect();
        let single: Vec<u64> =
            pool.iter().map(|q| model.predict_log_selectivity(q).to_bits()).collect();
        let per_task = model.queries_per_task();
        assert!((8..64).contains(&per_task), "task of {per_task} queries");
        for n in [0, 1, 7, 8, 63, 64, 65, 256, 257] {
            // Start part-way into the pool, so each size sees other queries.
            let start = (n * 7) % pool.len();
            let batch: Vec<Vec<f32>> = pool.iter().cycle().skip(start).take(n).cloned().collect();
            let want: Vec<u64> = (0..n).map(|i| single[(start + i) % pool.len()]).collect();
            for threads in [1, 2, 3, 4] {
                let got: Vec<u64> = ce_parallel::with_threads(threads, || {
                    model.predict_log_selectivity_batch(&batch)
                })
                .into_iter()
                .map(f64::to_bits)
                .collect();
                assert_eq!(got, want, "batch of {n} at {threads} threads");
            }
        }
    }

    #[test]
    fn batched_prediction_is_bit_identical_to_per_query() {
        let (model, _, x, _) = trained_mscn(200, 10);
        assert_chunked_forward_matches_per_query(&model, &x);
        let batch = model.predict_selectivity_batch(&x);
        assert_eq!(batch.len(), x.len());
        for (f, &b) in x.iter().zip(&batch) {
            let single = model.predict_selectivity(f);
            assert_eq!(
                single.to_bits(),
                b.to_bits(),
                "batched forward diverged from per-query: {single} vs {b}"
            );
        }
        assert!(model.predict_selectivity_batch(&[]).is_empty());
    }

    #[test]
    fn star_batched_prediction_is_bit_identical_to_per_query() {
        use ce_datagen::dsb_star;
        use ce_query::{generate_join_workload, random_templates, JoinGeneratorConfig};

        let star = dsb_star(400, 0);
        let feat = StarFeaturizer::new(&star);
        let templates = random_templates(&star, 6, 1);
        let w = generate_join_workload(&star, &templates, 12, &JoinGeneratorConfig::default(), 2);
        let x: Vec<Vec<f32>> = w.iter().map(|lq| feat.encode(&lq.query)).collect();
        let y: Vec<f64> = w.iter().map(|lq| lq.selectivity).collect();
        let model = Mscn::fit(
            MscnLayout::Star(feat),
            &x,
            &y,
            &MscnConfig { epochs: 5, ..Default::default() },
        );
        let batch = model.predict_log_selectivity_batch(&x);
        assert_eq!(batch.len(), x.len());
        for (f, &b) in x.iter().zip(&batch) {
            let single = model.predict_log_selectivity(f);
            assert_eq!(
                single.to_bits(),
                b.to_bits(),
                "batched star forward diverged from per-query: {single} vs {b}"
            );
        }
        assert_chunked_forward_matches_per_query(&model, &x);
    }
}
