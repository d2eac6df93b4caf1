//! Durable service checkpoints: versioned, checksummed, torn-write-safe.
//!
//! Format (DESIGN.md §9): a 24-byte header — magic `CEPC`, format version
//! (u32 LE), payload length (u64 LE), FNV-1a 64 checksum of the payload
//! (u64 LE) — followed by the hand-rolled binary payload. Every float is
//! stored as its IEEE-754 bit pattern, so restore is *bit-exact* (NaN
//! payloads included) and `encode(decode(bytes)) == bytes`.
//!
//! Writes go through a sibling temp file + `fsync` + atomic rename: a crash
//! mid-write leaves either the previous complete checkpoint or a stray temp
//! file, never a torn one at the live path. Reads verify magic, version,
//! length, and checksum before touching the payload; any violation is a
//! typed [`CardEstError`] so startup recovery can fall back to cold start.

use std::fs;
use std::io::Write as _;
use std::path::{Path, PathBuf};

use crate::error::CardEstError;
use crate::exchangeability::MartingaleSnapshot;
use crate::heal::{HealConfig, HealEvent, HealReason, HealSnapshot, HealState, SelfHealingService};
use crate::monitor::CoverageDrift;
use crate::regressor::Regressor;
use crate::resilient::{BreakerSnapshot, BreakerState};
use crate::score::ScoreFunction;
use crate::service::{PiService, PiServiceConfig, PiServiceState, ServiceMode};

/// File magic: "CEPC" (cardinality-estimation prediction checkpoint).
pub const CHECKPOINT_MAGIC: [u8; 4] = *b"CEPC";
/// Format version this build reads and writes.
pub const CHECKPOINT_VERSION: u32 = 2;
/// Header size: magic + version + payload length + checksum.
const HEADER_LEN: usize = 4 + 4 + 8 + 8;

/// A complete serialized service state: the wrapped [`PiService`]'s
/// calibration and monitors, the healing layer's state machine, and
/// (optionally) the circuit-breaker states of a resilient chain.
#[derive(Debug, Clone, PartialEq)]
pub struct Checkpoint {
    pub(crate) service: PiServiceState,
    pub(crate) heal: HealSnapshot,
    /// Breaker states of an associated fallback chain (empty when the
    /// checkpointed deployment has none).
    pub breakers: Vec<BreakerSnapshot>,
}

impl Checkpoint {
    /// Attaches circuit-breaker states (from
    /// [`crate::ResilientService::export_breakers`]) to the checkpoint.
    pub fn with_breakers(mut self, breakers: Vec<BreakerSnapshot>) -> Self {
        self.breakers = breakers;
        self
    }
}

impl<M: Regressor, S: ScoreFunction> SelfHealingService<M, S> {
    /// Captures the full serving state as a [`Checkpoint`].
    pub fn checkpoint(&self) -> Checkpoint {
        Checkpoint {
            service: self.service().export_state(),
            heal: self.export_heal(),
            breakers: Vec::new(),
        }
    }

    /// Rebuilds a service from a checkpoint around fresh copies of the
    /// (unserializable) model and score function. The restored service
    /// resumes bit-for-bit: `restored.checkpoint()` re-encodes to the same
    /// bytes.
    pub fn restore(model: M, score: S, checkpoint: Checkpoint) -> Result<Self, CardEstError> {
        let service = PiService::from_state(model, score, checkpoint.service)?;
        SelfHealingService::from_snapshot(service, checkpoint.heal)
    }
}

// ---------------------------------------------------------------------------
// FNV-1a 64
// ---------------------------------------------------------------------------

fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf29ce484222325;
    for &b in bytes {
        hash ^= b as u64;
        hash = hash.wrapping_mul(0x100000001b3);
    }
    hash
}

// ---------------------------------------------------------------------------
// Primitive writer/reader
// ---------------------------------------------------------------------------

#[derive(Default)]
struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }
    fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn usize(&mut self, v: usize) {
        self.u64(v as u64);
    }
    fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }
    fn bool(&mut self, v: bool) {
        self.u8(u8::from(v));
    }
    fn str(&mut self, v: &str) {
        self.usize(v.len());
        self.buf.extend_from_slice(v.as_bytes());
    }
    fn f64s(&mut self, vs: &[f64]) {
        self.usize(vs.len());
        for &v in vs {
            self.f64(v);
        }
    }
}

struct Reader<'a> {
    data: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], CardEstError> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.data.len())
            .ok_or(CardEstError::CheckpointCorrupt("truncated payload"))?;
        let slice = &self.data[self.pos..end];
        self.pos = end;
        Ok(slice)
    }
    fn u8(&mut self) -> Result<u8, CardEstError> {
        Ok(self.take(1)?[0])
    }
    fn u32(&mut self) -> Result<u32, CardEstError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("4 bytes")))
    }
    fn u64(&mut self) -> Result<u64, CardEstError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8 bytes")))
    }
    /// A length prefix, sanity-bounded by the bytes actually remaining so a
    /// corrupt length cannot trigger a huge allocation.
    fn len(&mut self, elem_size: usize) -> Result<usize, CardEstError> {
        let n = self.u64()? as usize;
        if n.saturating_mul(elem_size.max(1)) > self.data.len() - self.pos {
            return Err(CardEstError::CheckpointCorrupt("length prefix exceeds payload"));
        }
        Ok(n)
    }
    fn f64(&mut self) -> Result<f64, CardEstError> {
        Ok(f64::from_bits(self.u64()?))
    }
    fn bool(&mut self) -> Result<bool, CardEstError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(CardEstError::CheckpointCorrupt("invalid bool")),
        }
    }
    fn str(&mut self) -> Result<String, CardEstError> {
        let n = self.len(1)?;
        let bytes = self.take(n)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|_| CardEstError::CheckpointCorrupt("invalid utf-8 string"))
    }
    fn f64s(&mut self) -> Result<Vec<f64>, CardEstError> {
        let n = self.len(8)?;
        (0..n).map(|_| self.f64()).collect()
    }
}

// ---------------------------------------------------------------------------
// Payload codec
// ---------------------------------------------------------------------------

fn write_service(w: &mut Writer, s: &PiServiceState) {
    w.f64(s.config.alpha);
    w.usize(s.config.window);
    w.f64(s.config.shift_threshold);
    w.bool(s.config.couple_coverage_alarm);
    w.f64s(&s.online_scores);
    w.usize(s.online_nonfinite);
    w.f64s(&s.window_scores);
    w.f64s(&s.martingale.history);
    w.f64(s.martingale.log_m);
    w.f64(s.martingale.max_log_m);
    w.f64(s.martingale.min_log_m);
    w.f64(s.martingale.max_growth);
    w.u64(s.martingale.tie_state);
    w.u8(match s.mode {
        ServiceMode::Stable => 0,
        ServiceMode::Drifted => 1,
    });
    w.usize(s.since_switch);
    w.usize(s.shifts_detected);
    w.usize(s.monitor_entries.len());
    for &(covered, width) in &s.monitor_entries {
        w.bool(covered);
        w.f64(width);
    }
    match s.monitor_alarm {
        None => w.u8(0),
        Some(a) => {
            w.u8(1);
            w.f64(a.coverage);
            w.f64(a.floor);
            w.usize(a.samples);
        }
    }
    w.usize(s.monitor_alarms_raised);
    w.u64(s.monitor_observed_total);
}

fn read_service(r: &mut Reader<'_>) -> Result<PiServiceState, CardEstError> {
    let config = PiServiceConfig {
        alpha: r.f64()?,
        window: r.u64()? as usize,
        shift_threshold: r.f64()?,
        couple_coverage_alarm: r.bool()?,
    };
    let online_scores = r.f64s()?;
    // Restore adopts these as the sorted multiset without re-sorting, and
    // the checksum is no proof of origin: check the order here.
    if !online_scores.iter().all(|s| s.is_finite()) || !online_scores.is_sorted() {
        return Err(CardEstError::CheckpointCorrupt("online scores unsorted or non-finite"));
    }
    let online_nonfinite = r.u64()? as usize;
    let window_scores = r.f64s()?;
    let martingale = MartingaleSnapshot {
        history: r.f64s()?,
        log_m: r.f64()?,
        max_log_m: r.f64()?,
        min_log_m: r.f64()?,
        max_growth: r.f64()?,
        tie_state: r.u64()?,
    };
    let mode = match r.u8()? {
        0 => ServiceMode::Stable,
        1 => ServiceMode::Drifted,
        _ => return Err(CardEstError::CheckpointCorrupt("unknown service mode")),
    };
    let since_switch = r.u64()? as usize;
    let shifts_detected = r.u64()? as usize;
    let n_entries = r.len(9)?;
    let monitor_entries = (0..n_entries)
        .map(|_| Ok((r.bool()?, r.f64()?)))
        .collect::<Result<Vec<_>, CardEstError>>()?;
    let monitor_alarm = match r.u8()? {
        0 => None,
        1 => Some(CoverageDrift {
            coverage: r.f64()?,
            floor: r.f64()?,
            samples: r.u64()? as usize,
        }),
        _ => return Err(CardEstError::CheckpointCorrupt("invalid alarm tag")),
    };
    Ok(PiServiceState {
        config,
        online_scores,
        online_nonfinite,
        window_scores,
        martingale,
        mode,
        since_switch,
        shifts_detected,
        monitor_entries,
        monitor_alarm,
        monitor_alarms_raised: r.u64()? as usize,
        monitor_observed_total: r.u64()?,
    })
}

fn write_heal(w: &mut Writer, h: &HealSnapshot) {
    w.f64(h.config.epsilon);
    w.usize(h.config.min_history);
    w.f64(h.config.shadow_fraction);
    w.f64(h.config.max_width_blowup);
    w.u64(h.config.cooldown_base);
    w.u32(h.config.max_backoff_exp);
    w.u8(h.state as u8);
    w.u64(h.observations);
    w.f64s(&h.gathered);
    w.u64(h.gathered_dropped);
    w.u32(h.failures);
    w.u64(h.cooldown_until);
    w.u64(h.rollbacks);
    w.u64(h.promotions);
    w.usize(h.history.len());
    for event in &h.history {
        match *event {
            HealEvent::AlarmReceived { at, coverage } => {
                w.u8(0);
                w.u64(at);
                w.f64(coverage);
            }
            HealEvent::Promoted { at, shadow_coverage, candidate_delta } => {
                w.u8(1);
                w.u64(at);
                w.f64(shadow_coverage);
                w.f64(candidate_delta);
            }
            HealEvent::RolledBack { at, reason, shadow_coverage, cooldown_until } => {
                w.u8(2);
                w.u64(at);
                w.u8(match reason {
                    HealReason::ShadowCoverageLow => 0,
                    HealReason::WidthBlowup => 1,
                });
                w.f64(shadow_coverage);
                w.u64(cooldown_until);
            }
        }
    }
}

fn read_heal(r: &mut Reader<'_>) -> Result<HealSnapshot, CardEstError> {
    let config = HealConfig {
        epsilon: r.f64()?,
        min_history: r.u64()? as usize,
        shadow_fraction: r.f64()?,
        max_width_blowup: r.f64()?,
        cooldown_base: r.u64()?,
        max_backoff_exp: r.u32()?,
    };
    let state = match r.u8()? {
        0 => HealState::Healthy,
        1 => HealState::Recalibrating,
        2 => HealState::RolledBack,
        _ => return Err(CardEstError::CheckpointCorrupt("unknown heal state")),
    };
    let observations = r.u64()?;
    let gathered = r.f64s()?;
    let gathered_dropped = r.u64()?;
    let failures = r.u32()?;
    let cooldown_until = r.u64()?;
    let rollbacks = r.u64()?;
    let promotions = r.u64()?;
    let n_events = r.len(9)?;
    let mut history = Vec::with_capacity(n_events);
    for _ in 0..n_events {
        history.push(match r.u8()? {
            0 => HealEvent::AlarmReceived { at: r.u64()?, coverage: r.f64()? },
            1 => HealEvent::Promoted {
                at: r.u64()?,
                shadow_coverage: r.f64()?,
                candidate_delta: r.f64()?,
            },
            2 => HealEvent::RolledBack {
                at: r.u64()?,
                reason: match r.u8()? {
                    0 => HealReason::ShadowCoverageLow,
                    1 => HealReason::WidthBlowup,
                    _ => return Err(CardEstError::CheckpointCorrupt("unknown heal reason")),
                },
                shadow_coverage: r.f64()?,
                cooldown_until: r.u64()?,
            },
            _ => return Err(CardEstError::CheckpointCorrupt("unknown heal event")),
        });
    }
    Ok(HealSnapshot {
        config,
        state,
        observations,
        gathered,
        gathered_dropped,
        failures,
        cooldown_until,
        rollbacks,
        promotions,
        history,
    })
}

fn write_breakers(w: &mut Writer, breakers: &[BreakerSnapshot]) {
    w.usize(breakers.len());
    for b in breakers {
        w.str(&b.name);
        w.u8(match b.state {
            BreakerState::Closed => 0,
            BreakerState::Open => 1,
            BreakerState::HalfOpen => 2,
        });
        w.u32(b.consecutive_failures);
        w.u64(b.opened_at);
    }
}

fn read_breakers(r: &mut Reader<'_>) -> Result<Vec<BreakerSnapshot>, CardEstError> {
    let n = r.len(13)?;
    (0..n)
        .map(|_| {
            Ok(BreakerSnapshot {
                name: r.str()?,
                state: match r.u8()? {
                    0 => BreakerState::Closed,
                    1 => BreakerState::Open,
                    2 => BreakerState::HalfOpen,
                    _ => return Err(CardEstError::CheckpointCorrupt("unknown breaker state")),
                },
                consecutive_failures: r.u32()?,
                opened_at: r.u64()?,
            })
        })
        .collect()
}

// ---------------------------------------------------------------------------
// Envelope
// ---------------------------------------------------------------------------

/// Serializes a checkpoint to its on-disk byte representation.
pub fn encode_checkpoint(checkpoint: &Checkpoint) -> Vec<u8> {
    let mut w = Writer::default();
    write_service(&mut w, &checkpoint.service);
    write_heal(&mut w, &checkpoint.heal);
    write_breakers(&mut w, &checkpoint.breakers);
    let payload = w.buf;
    let mut out = Vec::with_capacity(HEADER_LEN + payload.len());
    out.extend_from_slice(&CHECKPOINT_MAGIC);
    out.extend_from_slice(&CHECKPOINT_VERSION.to_le_bytes());
    out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    out.extend_from_slice(&fnv1a64(&payload).to_le_bytes());
    out.extend_from_slice(&payload);
    out
}

/// Deserializes checkpoint bytes, verifying magic, version, length, and
/// checksum before decoding the payload. Every violation — truncation, bit
/// flips, trailing garbage, version skew — is a typed error, never a panic.
pub fn decode_checkpoint(bytes: &[u8]) -> Result<Checkpoint, CardEstError> {
    if bytes.len() < HEADER_LEN {
        return Err(CardEstError::CheckpointCorrupt("truncated header"));
    }
    if bytes[..4] != CHECKPOINT_MAGIC {
        return Err(CardEstError::CheckpointCorrupt("bad magic"));
    }
    let version = u32::from_le_bytes(bytes[4..8].try_into().expect("4 bytes"));
    if version != CHECKPOINT_VERSION {
        return Err(CardEstError::CheckpointVersionMismatch {
            found: version,
            expected: CHECKPOINT_VERSION,
        });
    }
    let payload_len = u64::from_le_bytes(bytes[8..16].try_into().expect("8 bytes")) as usize;
    let checksum = u64::from_le_bytes(bytes[16..24].try_into().expect("8 bytes"));
    let payload = &bytes[HEADER_LEN..];
    if payload.len() != payload_len {
        return Err(CardEstError::CheckpointCorrupt("payload length mismatch"));
    }
    if fnv1a64(payload) != checksum {
        return Err(CardEstError::CheckpointCorrupt("checksum mismatch"));
    }
    let mut r = Reader { data: payload, pos: 0 };
    let service = read_service(&mut r)?;
    let heal = read_heal(&mut r)?;
    let breakers = read_breakers(&mut r)?;
    if r.pos != payload.len() {
        return Err(CardEstError::CheckpointCorrupt("trailing bytes"));
    }
    Ok(Checkpoint { service, heal, breakers })
}

// ---------------------------------------------------------------------------
// File I/O
// ---------------------------------------------------------------------------

fn tmp_path(path: &Path) -> PathBuf {
    let mut os = path.as_os_str().to_owned();
    os.push(".tmp");
    PathBuf::from(os)
}

/// Writes a checkpoint durably: serialize to `<path>.tmp`, `fsync`, then
/// atomically rename over `path`. A crash at any point leaves the previous
/// checkpoint (or no file) at `path`, never a torn one.
pub fn write_checkpoint(path: &Path, checkpoint: &Checkpoint) -> Result<(), CardEstError> {
    let io = |e: std::io::Error| CardEstError::CheckpointIo(e.to_string());
    let bytes = encode_checkpoint(checkpoint);
    let tmp = tmp_path(path);
    let result = (|| {
        let mut file = fs::File::create(&tmp).map_err(io)?;
        file.write_all(&bytes).map_err(io)?;
        file.sync_all().map_err(io)?;
        drop(file);
        fs::rename(&tmp, path).map_err(io)
    })();
    if result.is_err() {
        let _ = fs::remove_file(&tmp);
    }
    ce_telemetry::counter(if result.is_ok() {
        "checkpoint.written"
    } else {
        "checkpoint.write_failed"
    })
    .inc();
    result
}

/// Reads and verifies a checkpoint file.
pub fn read_checkpoint(path: &Path) -> Result<Checkpoint, CardEstError> {
    let bytes = fs::read(path).map_err(|e| CardEstError::CheckpointIo(e.to_string()))?;
    decode_checkpoint(&bytes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::heal::HealConfig;
    use crate::score::AbsoluteResidual;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn model(f: &[f32]) -> f64 {
        f[0] as f64
    }

    fn streamed_service(n: usize) -> SelfHealingService<fn(&[f32]) -> f64, AbsoluteResidual> {
        let mut rng = StdRng::seed_from_u64(7);
        let mut svc = SelfHealingService::new(
            model as fn(&[f32]) -> f64,
            AbsoluteResidual,
            &[],
            &[],
            PiServiceConfig { window: 64, ..Default::default() },
            HealConfig::default(),
        );
        for i in 0..n {
            let x = [rng.gen_range(0.0..1.0f32)];
            // Poison a few observations so non-finite paths are exercised.
            let y = if i % 97 == 0 { f64::NAN } else { x[0] as f64 + rng.gen_range(-0.2..0.2) };
            svc.observe(&x, y);
        }
        svc
    }

    #[test]
    fn encode_decode_round_trips_exactly() {
        let svc = streamed_service(500);
        let ckpt = svc.checkpoint();
        let bytes = encode_checkpoint(&ckpt);
        let decoded = decode_checkpoint(&bytes).expect("own bytes must decode");
        // Byte-level fixpoint: re-encoding the decoded checkpoint is
        // identical, so "byte-identical resume" is checkable at rest. (Struct
        // equality would be weaker: the poisoned stream leaves NaN scores in
        // the state and `NaN != NaN` under PartialEq, while `to_bits`
        // round-trips them exactly.)
        assert_eq!(encode_checkpoint(&decoded), bytes);
        assert_eq!(decoded.breakers, ckpt.breakers);
    }

    #[test]
    fn restore_resumes_bit_for_bit() {
        let mut svc = streamed_service(400);
        let bytes = encode_checkpoint(&svc.checkpoint());
        let mut restored = SelfHealingService::restore(
            model as fn(&[f32]) -> f64,
            AbsoluteResidual,
            decode_checkpoint(&bytes).unwrap(),
        )
        .expect("restore");
        // The restored service re-checkpoints to the same bytes...
        assert_eq!(encode_checkpoint(&restored.checkpoint()), bytes);
        // ...and the two services evolve identically from here.
        let mut rng = StdRng::seed_from_u64(9);
        for _ in 0..300 {
            let x = [rng.gen_range(0.0..1.0f32)];
            let y = x[0] as f64 + rng.gen_range(-0.2..0.2);
            assert_eq!(svc.interval(&x), restored.interval(&x));
            svc.observe(&x, y);
            restored.observe(&x, y);
        }
        assert_eq!(
            encode_checkpoint(&svc.checkpoint()),
            encode_checkpoint(&restored.checkpoint())
        );
    }

    #[test]
    fn atomic_file_round_trip_and_overwrite() {
        let dir = std::env::temp_dir().join("ce-checkpoint-test");
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("svc.ckpt");
        let a = streamed_service(100).checkpoint();
        write_checkpoint(&path, &a).expect("write");
        assert_eq!(
            encode_checkpoint(&read_checkpoint(&path).expect("read")),
            encode_checkpoint(&a)
        );
        // Overwrite with a later state: rename replaces atomically.
        let b = streamed_service(300).checkpoint();
        write_checkpoint(&path, &b).expect("overwrite");
        assert_eq!(
            encode_checkpoint(&read_checkpoint(&path).expect("read")),
            encode_checkpoint(&b)
        );
        assert!(!tmp_path(&path).exists(), "temp file must not linger");
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn missing_file_is_io_error() {
        let err = read_checkpoint(Path::new("/nonexistent/nowhere.ckpt")).unwrap_err();
        assert!(matches!(err, CardEstError::CheckpointIo(_)));
    }

    /// Offset of the online score count: the header, then alpha, window
    /// and shift threshold (8 bytes each) and the coupling flag (1 byte).
    const ONLINE_COUNT_AT: usize = HEADER_LEN + 25;

    /// Writes `value` over online score `i` and re-seals the checksum, as
    /// anyone who can post a checkpoint can.
    fn forge_online_score(bytes: &mut [u8], i: usize, value: f64) {
        let at = ONLINE_COUNT_AT + 8 + 8 * i;
        bytes[at..at + 8].copy_from_slice(&value.to_bits().to_le_bytes());
        let sum = fnv1a64(&bytes[HEADER_LEN..]);
        bytes[16..24].copy_from_slice(&sum.to_le_bytes());
    }

    #[test]
    fn rejects_unsorted_or_non_finite_online_scores_under_a_valid_checksum() {
        let svc = streamed_service(200);
        let bytes = encode_checkpoint(&svc.checkpoint());
        let scores = svc.service().export_state().online_scores;
        let count = u64::from_le_bytes(bytes[ONLINE_COUNT_AT..][..8].try_into().unwrap());
        assert_eq!(count as usize, scores.len());
        let (first, last) = (scores[0], scores[scores.len() - 1]);
        assert!(first < last);
        // Re-sealing an untouched score leaves valid bytes.
        let mut same = bytes.clone();
        forge_online_score(&mut same, 0, first);
        assert_eq!(same, bytes);
        let corrupt = Err(CardEstError::CheckpointCorrupt("online scores unsorted or non-finite"));
        let mut unsorted = bytes.clone();
        forge_online_score(&mut unsorted, 0, last);
        forge_online_score(&mut unsorted, scores.len() - 1, first);
        assert_eq!(decode_checkpoint(&unsorted).map(|_| ()), corrupt);
        for bad in [f64::INFINITY, f64::NAN] {
            let mut forged = bytes.clone();
            forge_online_score(&mut forged, scores.len() - 1, bad);
            assert_eq!(decode_checkpoint(&forged).map(|_| ()), corrupt, "{bad}");
        }
    }

    #[test]
    fn rejects_bad_magic_version_and_checksum() {
        let bytes = encode_checkpoint(&streamed_service(50).checkpoint());
        // Bad magic.
        let mut bad = bytes.clone();
        bad[0] ^= 0xFF;
        assert!(matches!(
            decode_checkpoint(&bad),
            Err(CardEstError::CheckpointCorrupt("bad magic"))
        ));
        // Version skew.
        let mut skew = bytes.clone();
        skew[4..8].copy_from_slice(&(CHECKPOINT_VERSION + 1).to_le_bytes());
        assert!(matches!(
            decode_checkpoint(&skew),
            Err(CardEstError::CheckpointVersionMismatch { expected: CHECKPOINT_VERSION, .. })
        ));
        // Flipped payload bit fails the checksum.
        let mut flipped = bytes.clone();
        let last = flipped.len() - 1;
        flipped[last] ^= 0x01;
        assert!(matches!(
            decode_checkpoint(&flipped),
            Err(CardEstError::CheckpointCorrupt("checksum mismatch"))
        ));
        // Truncation at any prefix is rejected (torn write).
        for cut in [0, 10, HEADER_LEN, bytes.len() - 1] {
            assert!(decode_checkpoint(&bytes[..cut]).is_err(), "cut at {cut} accepted");
        }
        // Trailing garbage is rejected too.
        let mut padded = bytes.clone();
        padded.push(0);
        assert!(decode_checkpoint(&padded).is_err());
    }
}
