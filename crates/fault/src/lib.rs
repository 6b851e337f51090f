//! `marioh-fault`: deterministic fault injection for the serving stack.
//!
//! Each layer registers named *injection sites* — `store.fsync`,
//! `store.artifact`, `store.compact`, `wire.frame`, `shard.spawn.K`,
//! `shard.K`, `job.run` — by calling [`hit`] at the point where the
//! operation would happen. A [`FaultPlan`], parsed from `marioh serve
//! --faults` or the `MARIOH_FAULTS` environment variable, decides which
//! hits turn into injected faults.
//!
//! Two properties the chaos suite depends on:
//!
//! * **Determinism.** Triggers are keyed to per-site *operation
//!   counters*, never the wall clock: `store.fsync:err@nth:3` fails
//!   exactly the third fsync this process attempts, every run. (When
//!   several threads race on one site, which thread draws ticket #3 may
//!   vary, but some operation deterministically does.)
//! * **Zero overhead when unarmed.** With no plan set, [`hit`] is a
//!   single relaxed atomic load and an immediate `None` — cheap enough
//!   for per-frame and per-fsync call sites, verified by the bench
//!   gate staying green with the sites compiled in.
//!
//! Every injected fault counts into the process-wide [`marioh_obs`]
//! registry as `marioh_faults_injected_total{site=…}`, so a chaos run's
//! metrics tell the true story of what was injected where.
//!
//! The spec grammar is versioned as [`FAULT_SPEC_VERSION`] and recorded
//! in `crates/fault/FORMATS.md`, under the same CI ledger guard as the
//! store and wire formats.

#![warn(missing_docs)]

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::RwLock;

/// Version of the fault-spec grammar parsed by [`FaultPlan::parse`].
/// Bumping it requires a `## fault-spec vN` migration note in
/// `crates/fault/FORMATS.md` (CI and a unit test enforce this).
pub const FAULT_SPEC_VERSION: u32 = 2;

/// Environment variable holding a fault plan; read by
/// [`init_from_env`] in every `marioh` process (`serve` exports the
/// `--faults` value here so shard worker children inherit the plan).
pub const FAULTS_ENV: &str = "MARIOH_FAULTS";

/// What an injection site should do when its trigger fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Action {
    /// Fail the operation with an injected I/O-style error.
    Err,
    /// Corrupt the operation's bytes (sites define which byte flips;
    /// [`corrupt_byte`] is the shared convention).
    Corrupt,
    /// Stall the operation for the given number of milliseconds
    /// (`stall` with no argument stalls for [`DEFAULT_STALL_MS`] —
    /// long enough to trip any heartbeat timeout).
    Stall(u64),
    /// Terminate the process immediately with [`EXIT_CODE`] (scripted
    /// crash loops). Only honoured at sites that opt in — a store
    /// fsync never exits the server.
    Exit,
    /// Panic inside the operation (fault-spec v2). Only honoured at
    /// `job.run`, where it exercises the job runner's panic boundary.
    Panic,
}

/// Stall duration when the spec says `stall` without `=ms`.
pub const DEFAULT_STALL_MS: u64 = 60_000;

/// Exit code used by [`Action::Exit`] sites, distinguishable from real
/// crashes in test logs.
pub const EXIT_CODE: i32 = 86;

/// When, in a site's operation count, an entry fires. Operations are
/// numbered from 1 in the order the site is hit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Trigger {
    /// Fires exactly once, on the `n`-th operation.
    Nth(u64),
    /// Fires on operations `n`, `2n`, `3n`, …
    Every(u64),
    /// Fires on every operation up to and including the `n`-th.
    Upto(u64),
    /// Fires on every operation after the `n`-th.
    After(u64),
}

impl Trigger {
    fn fires(self, op: u64) -> bool {
        match self {
            Trigger::Nth(n) => op == n,
            Trigger::Every(n) => op.is_multiple_of(n),
            Trigger::Upto(n) => op <= n,
            Trigger::After(n) => op > n,
        }
    }
}

/// One `site:action@trigger` clause of a plan.
#[derive(Debug)]
struct Entry {
    site: String,
    action: Action,
    trigger: Trigger,
    /// Operations seen at this site since arming.
    ops: AtomicU64,
}

/// A parsed fault plan: an ordered list of clauses. See
/// `crates/fault/FORMATS.md` for the grammar.
#[derive(Debug, Default)]
pub struct FaultPlan {
    entries: Vec<Entry>,
}

impl FaultPlan {
    /// Parses a `site:action@trigger;site:action@trigger;…` spec.
    ///
    /// # Errors
    ///
    /// A message naming the offending clause; the grammar is versioned
    /// ([`FAULT_SPEC_VERSION`]) so errors are a spec bug, not skew.
    pub fn parse(spec: &str) -> Result<FaultPlan, String> {
        let mut entries = Vec::new();
        for clause in spec.split(';') {
            let clause = clause.trim();
            if clause.is_empty() {
                continue;
            }
            entries.push(parse_clause(clause)?);
        }
        if entries.is_empty() {
            return Err("fault spec contains no clauses".into());
        }
        Ok(FaultPlan { entries })
    }

    /// The number of clauses in the plan.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the plan has no clauses (never true for parsed plans).
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

fn parse_clause(clause: &str) -> Result<Entry, String> {
    let (head, trigger) = clause
        .split_once('@')
        .ok_or_else(|| format!("fault clause {clause:?} lacks an @trigger"))?;
    let (site, action) = head
        .rsplit_once(':')
        .ok_or_else(|| format!("fault clause {clause:?} lacks a :action"))?;
    if site.is_empty()
        || !site
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || c == '.' || c == '_' || c == '-')
    {
        return Err(format!("fault site {site:?} is not a dotted name"));
    }
    let action = match action.split_once('=') {
        None => match action {
            "err" => Action::Err,
            "corrupt" => Action::Corrupt,
            "stall" => Action::Stall(DEFAULT_STALL_MS),
            "exit" => Action::Exit,
            "panic" => Action::Panic,
            other => return Err(format!("unknown fault action {other:?}")),
        },
        Some(("stall", ms)) => Action::Stall(
            ms.parse()
                .map_err(|_| format!("stall duration {ms:?} is not a number"))?,
        ),
        Some((other, _)) => return Err(format!("action {other:?} takes no argument")),
    };
    let (kind, n) = trigger
        .split_once(':')
        .ok_or_else(|| format!("fault trigger {trigger:?} is not kind:N"))?;
    let n: u64 = n
        .parse()
        .map_err(|_| format!("fault trigger count {n:?} is not a number"))?;
    if n == 0 {
        return Err(format!("fault trigger {trigger:?} must count from 1"));
    }
    let trigger = match kind {
        // `job` reads naturally at shard sites; it is `nth` exactly.
        "nth" | "job" => Trigger::Nth(n),
        "every" => Trigger::Every(n),
        "upto" => Trigger::Upto(n),
        "after" => Trigger::After(n),
        other => return Err(format!("unknown fault trigger kind {other:?}")),
    };
    Ok(Entry {
        site: site.to_owned(),
        action,
        trigger,
        ops: AtomicU64::new(0),
    })
}

/// The single word the fast path reads: true iff a plan is armed.
static ARMED: AtomicBool = AtomicBool::new(false);
static PLAN: RwLock<Option<FaultPlan>> = RwLock::new(None);

/// Arms `plan` process-wide, replacing any previous plan (operation
/// counters restart from zero).
pub fn arm(plan: FaultPlan) {
    let mut slot = PLAN.write().expect("fault plan lock poisoned");
    *slot = Some(plan);
    ARMED.store(true, Ordering::Relaxed);
}

/// Disarms fault injection; subsequent [`hit`] calls are back to the
/// single-load fast path.
pub fn disarm() {
    let mut slot = PLAN.write().expect("fault plan lock poisoned");
    ARMED.store(false, Ordering::Relaxed);
    *slot = None;
}

/// Whether a plan is armed (one relaxed load; the hot-path guard).
#[inline]
pub fn active() -> bool {
    ARMED.load(Ordering::Relaxed)
}

/// Arms the plan in [`FAULTS_ENV`], if the variable is set.
///
/// # Errors
///
/// The parse error for a malformed spec; an unset variable is `Ok`.
pub fn init_from_env() -> Result<(), String> {
    match std::env::var(FAULTS_ENV) {
        Ok(spec) if !spec.trim().is_empty() => {
            let plan = FaultPlan::parse(&spec)?;
            arm(plan);
            Ok(())
        }
        _ => Ok(()),
    }
}

/// Registers one operation at `site` and returns the action to inject,
/// if any clause's trigger fires on this operation.
///
/// Unarmed, this is a single relaxed atomic load. Armed, every clause
/// naming `site` advances its counter; the first clause whose trigger
/// fires wins, and the injection is counted into the global registry
/// as `marioh_faults_injected_total{site=…}`.
#[inline]
pub fn hit(site: &str) -> Option<Action> {
    if !ARMED.load(Ordering::Relaxed) {
        return None;
    }
    hit_armed(site)
}

#[cold]
fn hit_armed(site: &str) -> Option<Action> {
    let guard = PLAN.read().expect("fault plan lock poisoned");
    let plan = guard.as_ref()?;
    let mut fired = None;
    for entry in plan.entries.iter().filter(|e| e.site == site) {
        let op = entry.ops.fetch_add(1, Ordering::Relaxed) + 1;
        if fired.is_none() && entry.trigger.fires(op) {
            fired = Some(entry.action);
        }
    }
    if fired.is_some() {
        marioh_obs::global()
            .counter_with("marioh_faults_injected_total", &[("site", site)])
            .inc();
    }
    fired
}

/// The I/O error an [`Action::Err`] injection surfaces — typed by its
/// message prefix so failure reasons in job records and logs name the
/// injection rather than masquerading as hardware.
pub fn io_error(site: &str) -> std::io::Error {
    std::io::Error::other(format!("injected fault at {site}"))
}

/// The shared corruption convention for [`Action::Corrupt`]: flip the
/// last byte of `bytes` (for a wire frame that lands in the payload —
/// or the CRC itself for an empty payload — so the receiver's checksum
/// check must catch it).
pub fn corrupt_byte(bytes: &mut [u8]) {
    if let Some(last) = bytes.last_mut() {
        *last ^= 0xFF;
    }
}

/// Sleeps out an [`Action::Stall`] injection. Deliberately a plain
/// blocking sleep: the point is to wedge the calling loop the way a
/// hung syscall would.
pub fn stall(ms: u64) {
    std::thread::sleep(std::time::Duration::from_millis(ms));
}

#[cfg(test)]
mod format_guard {
    /// The fault-spec ledger must document the version in use — the
    /// same rule (and CI grep) as the store and wire formats.
    #[test]
    fn formats_md_documents_the_current_spec_version() {
        let ledger = include_str!("../FORMATS.md");
        let heading = format!("## fault-spec v{}", crate::FAULT_SPEC_VERSION);
        assert!(
            ledger.lines().any(|l| l.trim() == heading),
            "crates/fault/FORMATS.md is missing a {heading:?} migration note — \
             document the grammar change before bumping the constant"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    /// Arming is process-global; tests that arm serialize on this.
    static ARM_LOCK: Mutex<()> = Mutex::new(());

    #[test]
    fn grammar_round_trips_the_issue_examples() {
        let plan = FaultPlan::parse(
            "store.fsync:err@nth:3;wire.frame:corrupt@every:50;shard.1:stall@job:2",
        )
        .unwrap();
        assert_eq!(plan.len(), 3);
        assert_eq!(plan.entries[0].action, Action::Err);
        assert_eq!(plan.entries[0].trigger, Trigger::Nth(3));
        assert_eq!(plan.entries[1].action, Action::Corrupt);
        assert_eq!(plan.entries[1].trigger, Trigger::Every(50));
        assert_eq!(plan.entries[2].action, Action::Stall(DEFAULT_STALL_MS));
        assert_eq!(plan.entries[2].trigger, Trigger::Nth(2));
        let plan = FaultPlan::parse("shard.spawn.1:err@upto:5; shard.2:exit@after:1").unwrap();
        assert_eq!(plan.entries[0].trigger, Trigger::Upto(5));
        assert_eq!(plan.entries[1].action, Action::Exit);
        assert_eq!(
            FaultPlan::parse("job.run:panic@nth:1").unwrap().entries[0].action,
            Action::Panic
        );
        assert_eq!(
            FaultPlan::parse("worker.exec:stall=250@nth:1")
                .unwrap()
                .entries[0]
                .action,
            Action::Stall(250)
        );
    }

    #[test]
    fn malformed_specs_are_rejected_with_a_reason() {
        for (spec, needle) in [
            ("", "no clauses"),
            ("store.fsync:err", "@trigger"),
            ("store.fsync@nth:1", ":action"),
            ("store.fsync:boom@nth:1", "unknown fault action"),
            ("store.fsync:err@sometimes:1", "unknown fault trigger"),
            ("store.fsync:err@nth:zero", "not a number"),
            ("store.fsync:err@nth:0", "count from 1"),
            ("bad site!:err@nth:1", "dotted name"),
            ("store.fsync:err=5@nth:1", "takes no argument"),
            ("store.fsync:stall=abc@nth:1", "not a number"),
        ] {
            let err = FaultPlan::parse(spec).unwrap_err();
            assert!(err.contains(needle), "{spec:?}: {err}");
        }
    }

    #[test]
    fn triggers_fire_on_the_right_operations() {
        let fired = |t: Trigger| -> Vec<u64> { (1..=10).filter(|&op| t.fires(op)).collect() };
        assert_eq!(fired(Trigger::Nth(3)), vec![3]);
        assert_eq!(fired(Trigger::Every(4)), vec![4, 8]);
        assert_eq!(fired(Trigger::Upto(2)), vec![1, 2]);
        assert_eq!(fired(Trigger::After(8)), vec![9, 10]);
    }

    #[test]
    fn unarmed_hits_are_none_and_armed_hits_count_deterministically() {
        let _guard = ARM_LOCK.lock().unwrap();
        disarm();
        assert!(!active());
        assert!(hit("store.fsync").is_none());

        arm(FaultPlan::parse("t.site:err@nth:2;t.site:corrupt@every:3").unwrap());
        assert!(active());
        let before = marioh_obs::global()
            .counter_with("marioh_faults_injected_total", &[("site", "t.site")])
            .get();
        // Op:      1     2            3                4     5
        // nth:2    -     Err          -                -     -
        // every:3  -     -            Corrupt          -     -
        let seen: Vec<Option<Action>> = (0..5).map(|_| hit("t.site")).collect();
        assert_eq!(
            seen,
            vec![None, Some(Action::Err), Some(Action::Corrupt), None, None]
        );
        assert!(hit("t.other").is_none(), "unnamed sites never fire");
        let after = marioh_obs::global()
            .counter_with("marioh_faults_injected_total", &[("site", "t.site")])
            .get();
        assert_eq!(after - before, 2, "each injection counted once");
        disarm();
        assert!(hit("t.site").is_none());
    }

    #[test]
    fn corruption_flips_a_byte_and_io_error_names_the_site() {
        let mut bytes = vec![1, 2, 3];
        corrupt_byte(&mut bytes);
        assert_eq!(bytes, vec![1, 2, 3 ^ 0xFF]);
        corrupt_byte(&mut []);
        let err = io_error("wire.frame");
        assert!(err.to_string().contains("injected fault at wire.frame"));
    }

    #[test]
    fn env_arming_parses_or_reports() {
        let _guard = ARM_LOCK.lock().unwrap();
        disarm();
        // Unset: a no-op. (Setting env vars in-process races other
        // tests, so the positive path is covered via arm() above and
        // the chaos e2e suite which inherits the variable for real.)
        std::env::remove_var(FAULTS_ENV);
        init_from_env().unwrap();
        assert!(!active());
    }
}
