//! Crash-proof grid evaluation: panic isolation, divergence budgets,
//! and a resumable on-disk journal.
//!
//! [`crate::run_grid`] propagates a panic — correct for verified
//! production sweeps, fatal for exploratory ones where one degenerate
//! configuration (a deadlocking fault scenario, a diverging search)
//! should not poison the other 99 points. [`run_grid_robust`] wraps
//! every point in [`std::panic::catch_unwind`] and reports a typed
//! [`PointOutcome`] per point instead; the evaluation closure can also
//! *cooperatively* give up by returning [`Diverged`] when a cycle
//! budget runs out (the engine cannot preempt a stuck simulation from
//! outside — budget checks belong in the point's own stepping loop).
//!
//! [`run_grid_journal`] adds a line-oriented journal file: every
//! finished point is appended (and flushed) as it completes, and a
//! rerun against the same file replays recorded outcomes instead of
//! re-evaluating them — resuming a partially completed grid after a
//! crash or an interrupt. Corrupt or half-written lines are skipped, so
//! a torn final line from a killed process just re-runs that point.
//!
//! Panics escaping a worker still print the default panic-hook message
//! to stderr before being caught; that noise is deliberate (silencing
//! it would require swapping the process-global hook, which races with
//! concurrent tests).

use std::collections::HashMap;
use std::io::Write;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::sync::Mutex;

use crate::run_grid;

/// Cooperative divergence marker: the point's evaluation loop exhausted
/// its cycle budget without converging.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Diverged {
    /// The budget (in whatever unit the evaluator counts — typically
    /// simulated cycles) that was exhausted.
    pub budget: u64,
}

/// The result of one robustly-evaluated grid point.
#[derive(Debug, Clone, PartialEq)]
pub enum PointOutcome<R> {
    /// The point evaluated normally.
    Ok(R),
    /// The point's evaluation panicked; the sweep continued without it.
    Panicked {
        /// The panic payload, when it was a string (the common case).
        message: String,
    },
    /// The point gave up after exhausting its cycle budget.
    Diverged {
        /// The exhausted budget.
        budget: u64,
    },
}

impl<R> PointOutcome<R> {
    /// The successful result, if any.
    pub fn ok(self) -> Option<R> {
        match self {
            PointOutcome::Ok(r) => Some(r),
            _ => None,
        }
    }

    /// The successful result by reference, if any.
    pub fn as_ok(&self) -> Option<&R> {
        match self {
            PointOutcome::Ok(r) => Some(r),
            _ => None,
        }
    }

    /// True for [`PointOutcome::Ok`].
    pub fn is_ok(&self) -> bool {
        matches!(self, PointOutcome::Ok(_))
    }
}

/// Render a caught panic payload (usually a `&str` or `String`).
pub fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_string()
    }
}

/// Evaluate every grid point like [`run_grid`], but isolate failures:
/// a panicking point yields [`PointOutcome::Panicked`], a point whose
/// evaluator returns `Err(Diverged)` yields [`PointOutcome::Diverged`],
/// and every other point completes normally. Results are in point
/// order and parallel evaluation is bit-identical to serial, exactly
/// as for [`run_grid`].
pub fn run_grid_robust<T, R, F>(points: &[T], eval: F) -> Vec<PointOutcome<R>>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> Result<R, Diverged> + Sync,
{
    run_isolated("grid", points, eval, |_, isolated| isolated())
}

/// The one point-isolation path: [`run_grid`] with a progress reporter,
/// where point `i` yields `settle(i, isolated)` and `isolated()`
/// evaluates it under [`catch_unwind`].
fn run_isolated<T, R, O, F, S>(what: &str, points: &[T], eval: F, settle: S) -> Vec<O>
where
    T: Sync,
    O: Send,
    F: Fn(usize, &T) -> Result<R, Diverged> + Sync,
    S: Fn(usize, &dyn Fn() -> PointOutcome<R>) -> O + Sync,
{
    let progress = crate::Progress::from_env(what, points.len());
    let out = run_grid(points, |i, p| {
        let isolated = || match catch_unwind(AssertUnwindSafe(|| eval(i, p))) {
            Ok(Ok(r)) => PointOutcome::Ok(r),
            Ok(Err(d)) => PointOutcome::Diverged { budget: d.budget },
            Err(payload) => PointOutcome::Panicked { message: panic_message(payload.as_ref()) },
        };
        let out = settle(i, &isolated);
        progress.point_done();
        out
    });
    progress.finish();
    out
}

/// Serializer for journaled point results: one line of text per result.
///
/// Implementations must round-trip (`decode(encode(r)) == Some(r)`) and
/// should return `None` from `decode` on schema mismatch — the point is
/// then re-evaluated instead of resuming with garbage.
pub trait PointCodec<R> {
    /// Encode a result as a single-line payload (newlines/tabs are
    /// escaped by the journal, not the codec).
    fn encode(&self, r: &R) -> String;
    /// Decode a payload; `None` re-runs the point.
    fn decode(&self, s: &str) -> Option<R>;
}

/// Escape a payload for the one-line-per-record journal format (shared
/// with the keyed service WAL in [`crate::wal`]).
pub(crate) fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '\t' => out.push_str("\\t"),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

/// Inverse of [`escape`]; `None` on a malformed escape.
pub(crate) fn unescape(s: &str) -> Option<String> {
    let mut out = String::with_capacity(s.len());
    let mut chars = s.chars();
    while let Some(c) = chars.next() {
        if c != '\\' {
            out.push(c);
            continue;
        }
        match chars.next()? {
            '\\' => out.push('\\'),
            't' => out.push('\t'),
            'n' => out.push('\n'),
            _ => return None,
        }
    }
    Some(out)
}

/// Parse one journal line into `(index, outcome)`; `None` skips it.
fn parse_line<R, C: PointCodec<R>>(line: &str, codec: &C) -> Option<(usize, PointOutcome<R>)> {
    let mut parts = line.splitn(3, '\t');
    let index: usize = parts.next()?.parse().ok()?;
    let kind = parts.next()?;
    let payload = unescape(parts.next()?)?;
    let outcome = match kind {
        "ok" => PointOutcome::Ok(codec.decode(&payload)?),
        "panicked" => PointOutcome::Panicked { message: payload },
        "diverged" => PointOutcome::Diverged { budget: payload.parse().ok()? },
        _ => return None,
    };
    Some((index, outcome))
}

/// Render one journal line (without the trailing newline).
fn render_line<R, C: PointCodec<R>>(i: usize, outcome: &PointOutcome<R>, codec: &C) -> String {
    match outcome {
        PointOutcome::Ok(r) => format!("{i}\tok\t{}", escape(&codec.encode(r))),
        PointOutcome::Panicked { message } => format!("{i}\tpanicked\t{}", escape(message)),
        PointOutcome::Diverged { budget } => format!("{i}\tdiverged\t{budget}"),
    }
}

/// Appends between `fsync`s while a journaled grid runs; the final
/// record batch is always synced before [`run_grid_journal`] returns.
const JOURNAL_SYNC_BATCH: usize = 64;

/// [`run_grid_robust`] with a resumable journal at `path`.
///
/// Outcomes already recorded in the journal (of **any** kind — a
/// recorded panic is not retried; delete the journal to retry) are
/// replayed without re-evaluation; the rest run through the robust
/// grid, and each is appended to the journal and flushed as soon as it
/// completes, with an `fsync` every `JOURNAL_SYNC_BATCH` (64) records and
/// once at the end of the grid, so even a machine crash loses at most
/// one batch of finished points.
///
/// A **torn final record** — a line without a trailing newline, the
/// signature of a process killed mid-append — is explicitly tolerated:
/// the partial record is dropped and its point re-runs. Complete lines
/// that fail to parse (unknown schema, bit rot, an index beyond this
/// grid) are likewise skipped and their points re-run.
///
/// # Errors
/// Only on journal I/O failure (open/append); evaluation failures are
/// values, per [`run_grid_robust`].
pub fn run_grid_journal<T, R, F, C>(
    points: &[T],
    path: &Path,
    codec: &C,
    eval: F,
) -> std::io::Result<Vec<PointOutcome<R>>>
where
    T: Sync,
    R: Send,
    C: PointCodec<R> + Sync,
    F: Fn(usize, &T) -> Result<R, Diverged> + Sync,
{
    let mut recorded: HashMap<usize, PointOutcome<R>> = HashMap::new();
    if path.exists() {
        // the torn tail (if any) has already been dropped here; it is
        // an expected crash artifact, not corruption
        let (lines, _torn) = crate::wal::read_lines_tolerant(path)?;
        for line in lines {
            if let Some((i, outcome)) = parse_line(&line, codec) {
                if i < points.len() {
                    recorded.insert(i, outcome);
                }
            }
        }
    }
    struct JournalWriter {
        file: std::fs::File,
        unsynced: usize,
    }
    let writer = Mutex::new(JournalWriter {
        file: std::fs::OpenOptions::new().create(true).append(true).open(path)?,
        unsynced: 0,
    });
    let recorded = Mutex::new(recorded);
    let outcomes = run_isolated("journal grid", points, eval, |i, isolated| {
        if let Some(prior) =
            recorded.lock().unwrap_or_else(std::sync::PoisonError::into_inner).remove(&i)
        {
            return Ok(prior);
        }
        let outcome = isolated();
        let line = render_line(i, &outcome, codec);
        {
            let mut w = writer.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
            // one write call per record: a crash can only tear the tail
            w.file.write_all(format!("{line}\n").as_bytes())?;
            w.unsynced += 1;
            if w.unsynced >= JOURNAL_SYNC_BATCH {
                w.file.sync_data()?;
                w.unsynced = 0;
            }
        }
        Ok(outcome)
    });
    {
        // final batch boundary: everything acknowledged is on disk
        let mut w = writer.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        if w.unsynced > 0 {
            w.file.sync_data()?;
            w.unsynced = 0;
        }
    }
    outcomes.into_iter().collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    struct U64Codec;
    impl PointCodec<u64> for U64Codec {
        fn encode(&self, r: &u64) -> String {
            r.to_string()
        }
        fn decode(&self, s: &str) -> Option<u64> {
            s.parse().ok()
        }
    }

    fn eval_with_failures(i: usize, &p: &u64) -> Result<u64, Diverged> {
        if i == 3 {
            panic!("deliberate failure at point 3");
        }
        if i == 5 {
            return Err(Diverged { budget: 1_000 });
        }
        Ok(p * 10)
    }

    #[test]
    fn robust_isolates_panics_and_divergence() {
        let points: Vec<u64> = (0..8).collect();
        let out = run_grid_robust(&points, eval_with_failures);
        assert_eq!(out.len(), 8);
        for (i, o) in out.iter().enumerate() {
            match i {
                3 => assert_eq!(
                    o,
                    &PointOutcome::Panicked { message: "deliberate failure at point 3".into() }
                ),
                5 => assert_eq!(o, &PointOutcome::Diverged { budget: 1_000 }),
                _ => assert_eq!(o, &PointOutcome::Ok(i as u64 * 10)),
            }
        }
    }

    #[test]
    fn escape_round_trips() {
        for s in ["", "plain", "tab\there", "line\nbreak", "back\\slash", "\\t\\n\\\\"] {
            assert_eq!(unescape(&escape(s)).as_deref(), Some(s));
        }
        assert_eq!(unescape("bad\\x"), None, "unknown escape is rejected");
        assert_eq!(unescape("trailing\\"), None, "truncated escape is rejected");
    }

    #[test]
    fn journal_resumes_without_reevaluating() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let dir = std::env::temp_dir().join(format!("noc_exp_journal_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("resume.journal");
        let _ = std::fs::remove_file(&path);

        let points: Vec<u64> = (0..8).collect();
        let first = run_grid_journal(&points, &path, &U64Codec, eval_with_failures).unwrap();
        assert_eq!(first.iter().filter(|o| o.is_ok()).count(), 6);

        // second run must replay every outcome from the journal
        let evals = AtomicUsize::new(0);
        let second = run_grid_journal(&points, &path, &U64Codec, |i, p| {
            evals.fetch_add(1, Ordering::Relaxed);
            eval_with_failures(i, p)
        })
        .unwrap();
        assert_eq!(evals.load(Ordering::Relaxed), 0, "all points must come from the journal");
        assert_eq!(first, second);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn journal_tolerates_a_torn_final_record() {
        let dir = std::env::temp_dir().join(format!("noc_exp_journal_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("torn.journal");
        // two complete records, then a record torn mid-payload by a
        // simulated SIGKILL: no trailing newline
        std::fs::write(&path, "0\tok\t100\n1\tok\t200\n2\tok\t3").unwrap();
        let points: Vec<u64> = (0..3).collect();
        use std::sync::atomic::{AtomicUsize, Ordering};
        let evals = AtomicUsize::new(0);
        let out = run_grid_journal(&points, &path, &U64Codec, |_, &p| {
            evals.fetch_add(1, Ordering::Relaxed);
            Ok(p * 10 + 7)
        })
        .unwrap();
        assert_eq!(out[0], PointOutcome::Ok(100), "complete records replay");
        assert_eq!(out[1], PointOutcome::Ok(200));
        assert_eq!(out[2], PointOutcome::Ok(27), "the torn point re-runs");
        assert_eq!(evals.load(Ordering::Relaxed), 1, "only the torn point is re-evaluated");
        // the re-run's record was appended on its own line: a fresh
        // resume replays all three without evaluating anything
        let evals2 = AtomicUsize::new(0);
        let again = run_grid_journal(&points, &path, &U64Codec, |_, &p| {
            evals2.fetch_add(1, Ordering::Relaxed);
            Ok(p)
        })
        .unwrap();
        assert_eq!(evals2.load(Ordering::Relaxed), 1, "torn bytes still on disk tear one line");
        assert_eq!(again[0], PointOutcome::Ok(100));
        assert_eq!(again[1], PointOutcome::Ok(200));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn journal_skips_corrupt_lines_and_reruns_them() {
        let dir = std::env::temp_dir().join(format!("noc_exp_journal_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("corrupt.journal");
        // a valid record for point 1, a garbage index, and a torn line
        // missing its payload field
        std::fs::write(&path, "1\tok\t999\nzz\tok\t5\n3\tok\n").unwrap();
        let points: Vec<u64> = (0..4).collect();
        let out = run_grid_journal(&points, &path, &U64Codec, |_, &p| Ok(p + 1)).unwrap();
        assert_eq!(out[1], PointOutcome::Ok(999), "valid record replays");
        assert_eq!(out[0], PointOutcome::Ok(1), "unrecorded point evaluates");
        assert_eq!(out[3], PointOutcome::Ok(4), "corrupt record re-runs its point");
        let _ = std::fs::remove_file(&path);
    }
}
