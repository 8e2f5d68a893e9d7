//! Deterministic fault injection for the execution stack, and the
//! algorithm-fallback rung ([`fall_back`]) injected and real faults
//! degrade through.
//!
//! A [`FaultInjector`] is a small, clonable table of *rules*, each firing a
//! [`FaultKind`] at a reproducible `(site, occurrence)` point. Sites are
//! plain strings named by the code that hosts the injection point (the pool
//! checks `pool.<label>` before every job; the executor checks
//! `exec.<layer>`; the fused runner checks `fused.group<start>` and
//! `fused.dram<start>`; `Framework::plan_entry` checks `plan.build` once
//! per plan build). Every rule carries its own atomic occurrence
//! counter, so "the 3rd time site X is reached" is exact and — because all
//! pool claims and layer boundaries are sequenced deterministically — the
//! same fault fires at the same point regardless of worker count.
//!
//! # Spec grammar
//!
//! ```text
//! spec  := rule (',' rule)*
//! rule  := kind '@' site [ '#' occ ]
//! kind  := 'panic' | 'sat' | 'dram:<±bytes>'
//! site  := literal site name; a trailing '*' makes it a prefix match
//! occ   := <n>      fire on the n-th occurrence only (1-based; default 1)
//!        | '*'      fire on every occurrence
//!        | 's<seed>' fire on a seed-derived occurrence in 1..=16
//! ```
//!
//! Examples: `panic@pool.conv2/wino.gemm#1` panics the first Winograd GEMM
//! job of layer `conv2`; `dram:-128@fused.dram*#*` removes 128 bytes from
//! every fused group's DRAM meter; `sat@exec.conv3#s7` reports a Winograd
//! -domain saturation at layer `conv3` on an occurrence derived from seed 7.
//!
//! A rule whose site pattern can only reach sites that never apply its
//! kind is rejected at parse time: pool jobs apply only `panic`, executor
//! layers and fused groups `panic` and `sat`, fused DRAM meters `panic`
//! and `dram`, and `plan.build` only `panic`. A site name that matches no
//! known site is accepted as written.
//!
//! The disabled injector (the default) costs one branch per check — the
//! same contract as the disabled [`crate::PoolProfiler`].

use std::any::Any;
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Once};

use winofuse_telemetry::Telemetry;

/// What an armed rule does when it fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Panic at the site (payload is an [`InjectedFault`]). Models a kernel
    /// crash; exercised recovery path: per-job isolation + algorithm
    /// fallback.
    Panic,
    /// Report a fix16 saturation burst at the site. Models Winograd-domain
    /// overflow; exercised recovery path: re-run on the direct path.
    Saturate,
    /// Perturb a DRAM byte meter by the given signed delta. Exercised
    /// recovery path: lenient-mode downgrade of the fused group.
    DramDelta(i64),
}

impl FaultKind {
    /// The kind's name in a spec.
    fn name(self) -> &'static str {
        match self {
            FaultKind::Panic => "panic",
            FaultKind::Saturate => "sat",
            FaultKind::DramDelta(_) => "dram",
        }
    }
}

/// The sites the execution stack checks, as site patterns, with the kinds
/// each applies: the pool before every job, the executor per layer, the
/// fused runner per group and per DRAM meter, and the plan build.
const SITE_CLASSES: [(&str, &[&str]); 5] = [
    ("pool.*", &["panic"]),
    ("exec.*", &["panic", "sat"]),
    ("fused.group*", &["panic", "sat"]),
    ("fused.dram*", &["panic", "dram"]),
    ("plan.build", &["panic"]),
];

/// Whether some site name matches both patterns (a trailing `*` makes a
/// pattern a prefix match).
fn patterns_overlap(a: &str, b: &str) -> bool {
    match (a.strip_suffix('*'), b.strip_suffix('*')) {
        (Some(pa), Some(pb)) => pa.starts_with(pb) || pb.starts_with(pa),
        (Some(pa), None) => b.starts_with(pa),
        (None, Some(pb)) => a.starts_with(pb),
        (None, None) => a == b,
    }
}

/// Rejects a rule whose pattern reaches known sites, none of which
/// applies its kind; a pattern that reaches no known site is accepted.
fn check_applies(raw: &str, kind: FaultKind, site: &str) -> Result<(), String> {
    let reached: Vec<&(&str, &[&str])> = SITE_CLASSES
        .iter()
        .filter(|(class, _)| patterns_overlap(site, class))
        .collect();
    if reached.is_empty()
        || reached
            .iter()
            .any(|(_, kinds)| kinds.contains(&kind.name()))
    {
        return Ok(());
    }
    let classes: Vec<String> = reached
        .iter()
        .map(|(class, kinds)| format!("`{class}` (applies {})", kinds.join(", ")))
        .collect();
    Err(format!(
        "fault rule `{raw}`: no site it can match applies `{}` faults: {}",
        kind.name(),
        classes.join("; ")
    ))
}

/// When a rule fires relative to its own occurrence counter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FireAt {
    /// Fire on exactly the n-th occurrence (1-based).
    Nth(u64),
    /// Fire on every occurrence.
    Every,
    /// Fire on one occurrence in `1..=16`, derived deterministically from
    /// `(seed, site-pattern)` — reproducible pseudo-random placement.
    Seeded(u64),
}

/// One parsed injection rule.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultRule {
    pub kind: FaultKind,
    /// Site name; a trailing `*` makes this a prefix pattern.
    pub site: String,
    pub fire: FireAt,
}

impl FaultRule {
    fn matches(&self, site: &str) -> bool {
        match self.site.strip_suffix('*') {
            Some(prefix) => site.starts_with(prefix),
            None => site == self.site,
        }
    }

    fn fires_on(&self, occurrence: u64) -> bool {
        match self.fire {
            FireAt::Nth(n) => occurrence == n,
            FireAt::Every => true,
            FireAt::Seeded(seed) => occurrence == seeded_occurrence(seed, &self.site),
        }
    }
}

/// The occurrence (1..=16) a seeded rule fires on: FNV-1a over the seed and
/// the site pattern, folded into the window. Pure function of its inputs —
/// the whole point is that a chaos run is replayable from its spec string.
pub fn seeded_occurrence(seed: u64, site_pattern: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in seed.to_le_bytes().iter().chain(site_pattern.as_bytes()) {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    1 + h % 16
}

struct ArmedRule {
    rule: FaultRule,
    hits: AtomicU64,
}

struct InjectorState {
    rules: Vec<ArmedRule>,
    fired: AtomicU64,
}

/// A shared, thread-safe fault-rule table. Cloning shares the occurrence
/// counters, so one injector threaded through executor, runner, and pool
/// counts each site consistently. The default/disabled injector holds no
/// allocation and every check is a single `Option` branch.
#[derive(Clone, Default)]
pub struct FaultInjector(Option<Arc<InjectorState>>);

impl fmt::Debug for FaultInjector {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.0 {
            None => write!(f, "FaultInjector(disabled)"),
            Some(s) => write!(f, "FaultInjector({} rules)", s.rules.len()),
        }
    }
}

impl FaultInjector {
    /// The no-op injector: [`FaultInjector::check`] always returns `None`.
    pub fn disabled() -> Self {
        FaultInjector(None)
    }

    /// Builds an injector from already-parsed rules.
    pub fn from_rules(rules: Vec<FaultRule>) -> Self {
        if rules.is_empty() {
            return FaultInjector(None);
        }
        FaultInjector(Some(Arc::new(InjectorState {
            rules: rules
                .into_iter()
                .map(|rule| ArmedRule {
                    rule,
                    hits: AtomicU64::new(0),
                })
                .collect(),
            fired: AtomicU64::new(0),
        })))
    }

    /// Parses a spec string (see module docs for the grammar).
    ///
    /// # Errors
    ///
    /// Returns a message naming the offending rule on any syntax error, or
    /// naming the site class when no site the rule's pattern can match
    /// applies its kind (`sat@pool.*`, `dram:8@exec.*`).
    pub fn parse(spec: &str) -> Result<Self, String> {
        let mut rules = Vec::new();
        for raw in spec.split(',') {
            let raw = raw.trim();
            if raw.is_empty() {
                continue;
            }
            rules.push(parse_rule(raw)?);
        }
        if rules.is_empty() {
            return Err("empty fault spec".to_string());
        }
        Ok(FaultInjector::from_rules(rules))
    }

    pub fn is_enabled(&self) -> bool {
        self.0.is_some()
    }

    /// Records one occurrence of `site` against every matching rule and
    /// returns the fault to apply, if any fired. The caller applies the
    /// effect ([`FaultInjector::trip`] does it inline for `Panic`).
    pub fn check(&self, site: &str) -> Option<FaultKind> {
        let state = self.0.as_ref()?;
        let mut fired = None;
        for armed in &state.rules {
            if !armed.rule.matches(site) {
                continue;
            }
            let occurrence = armed.hits.fetch_add(1, Ordering::Relaxed) + 1;
            if fired.is_none() && armed.rule.fires_on(occurrence) {
                state.fired.fetch_add(1, Ordering::Relaxed);
                fired = Some(armed.rule.kind);
            }
        }
        fired
    }

    /// [`FaultInjector::check`], applying `Panic` (via [`std::panic::panic_any`]
    /// with an [`InjectedFault`] payload) inline. `Saturate` / `DramDelta`
    /// are returned for the caller to interpret.
    pub fn trip(&self, site: &str) -> Option<FaultKind> {
        match self.check(site) {
            Some(FaultKind::Panic) => std::panic::panic_any(InjectedFault {
                site: site.to_string(),
            }),
            other => other,
        }
    }

    /// Total number of rule firings so far (all sites, all kinds).
    pub fn fired_count(&self) -> u64 {
        self.0
            .as_ref()
            .map_or(0, |s| s.fired.load(Ordering::Relaxed))
    }
}

fn parse_rule(raw: &str) -> Result<FaultRule, String> {
    let (kind_str, rest) = raw
        .split_once('@')
        .ok_or_else(|| format!("fault rule `{raw}`: expected `kind@site[#occ]`"))?;
    let (site, occ_str) = match rest.split_once('#') {
        Some((s, o)) => (s, Some(o)),
        None => (rest, None),
    };
    if site.is_empty() {
        return Err(format!("fault rule `{raw}`: empty site"));
    }
    let kind = match kind_str.split_once(':') {
        None => match kind_str {
            "panic" => FaultKind::Panic,
            "sat" => FaultKind::Saturate,
            "dram" => {
                return Err(format!("fault rule `{raw}`: `dram` needs `:<±bytes>`"));
            }
            other => return Err(format!("fault rule `{raw}`: unknown kind `{other}`")),
        },
        Some(("dram", delta)) => {
            let delta: i64 = delta
                .parse()
                .map_err(|_| format!("fault rule `{raw}`: bad dram delta `{delta}`"))?;
            FaultKind::DramDelta(delta)
        }
        Some((kind @ ("panic" | "sat"), _)) => {
            return Err(format!("fault rule `{raw}`: kind `{kind}` takes no arg"));
        }
        Some((other, _)) => return Err(format!("fault rule `{raw}`: unknown kind `{other}`")),
    };
    let fire = match occ_str {
        None => FireAt::Nth(1),
        Some("*") => FireAt::Every,
        Some(o) => {
            if let Some(seed) = o.strip_prefix('s') {
                let seed: u64 = seed
                    .parse()
                    .map_err(|_| format!("fault rule `{raw}`: bad seed `{o}`"))?;
                FireAt::Seeded(seed)
            } else {
                let n: u64 = o
                    .parse()
                    .map_err(|_| format!("fault rule `{raw}`: bad occurrence `{o}`"))?;
                if n == 0 {
                    return Err(format!("fault rule `{raw}`: occurrences are 1-based"));
                }
                FireAt::Nth(n)
            }
        }
    };
    check_applies(raw, kind, site)?;
    Ok(FaultRule {
        kind,
        site: site.to_string(),
        fire,
    })
}

/// How detected faults are handled by the executor and the fused runner.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultMode {
    /// Convert every detected fault into a typed error and stop.
    Strict,
    /// Degrade gracefully: fall back to the next rung of the algorithm
    /// ladder (Winograd → direct, fused → unfused) and keep going,
    /// recording `exec.fallbacks` telemetry.
    Lenient,
}

impl std::str::FromStr for FaultMode {
    type Err = String;
    fn from_str(s: &str) -> Result<Self, String> {
        match s {
            "strict" => Ok(FaultMode::Strict),
            "lenient" => Ok(FaultMode::Lenient),
            other => Err(format!("fault mode `{other}`: expected strict|lenient")),
        }
    }
}

/// A fault the algorithm-fallback rung may absorb. `class` names the
/// `exec.fallbacks.<class>` counter a recovery bumps (`panic`,
/// `saturation`, `kernel_fault` or `dram_mismatch`); `reason` is the
/// one-line description a strict-mode error or a fallback record carries.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Fault {
    pub class: &'static str,
    pub reason: String,
}

/// Why a primary attempt handed to [`fall_back`] produced no value.
#[derive(Debug)]
pub enum Failure<E> {
    /// A fault the fallback may absorb.
    Fault(Fault),
    /// An error no algorithm switch can fix (shape, configuration);
    /// it propagates untouched.
    Error(E),
}

/// The algorithm-fallback rung of the degradation ladder, shared by the
/// executor (Winograd → direct) and the fused runner (fused → unfused).
///
/// `primary` runs under `catch_unwind`; a panic counts as a [`Fault`] of
/// class `panic`. A value returns with no reason, and a
/// [`Failure::Error`] propagates untouched. A fault is absorbed only
/// when `mode` is lenient and a `fallback` exists: the fallback runs
/// under `catch_unwind`, its success bumps `exec.fallbacks` and
/// `exec.fallbacks.<class>`, and the primary's fault reason returns with
/// its value. Otherwise `fault(reason)` builds the typed error.
///
/// # Errors
///
/// The primary's [`Failure::Error`]; the fallback's own error;
/// `fault(reason)` when the fault is not absorbed or the fallback
/// panics.
pub fn fall_back<T, E>(
    mode: FaultMode,
    telemetry: &Telemetry,
    primary: impl FnOnce() -> Result<T, Failure<E>>,
    fallback: Option<impl FnOnce() -> Result<T, E>>,
    fault: impl FnOnce(String) -> E,
) -> Result<(T, Option<String>), E> {
    let Fault { class, reason } = match catch_unwind(AssertUnwindSafe(primary)) {
        Ok(Ok(value)) => return Ok((value, None)),
        Ok(Err(Failure::Error(e))) => return Err(e),
        Ok(Err(Failure::Fault(f))) => f,
        Err(payload) => Fault {
            class: "panic",
            reason: describe_panic(payload.as_ref()),
        },
    };
    let Some(fallback) = fallback.filter(|_| mode == FaultMode::Lenient) else {
        return Err(fault(reason));
    };
    match catch_unwind(AssertUnwindSafe(fallback)) {
        Ok(Ok(value)) => {
            telemetry.counter("exec.fallbacks").incr();
            telemetry.counter(&format!("exec.fallbacks.{class}")).incr();
            Ok((value, Some(reason)))
        }
        Ok(Err(e)) => Err(e),
        Err(payload) => Err(fault(format!(
            "fallback panicked after `{reason}`: {}",
            describe_panic(payload.as_ref())
        ))),
    }
}

/// Panic payload used by injected `Panic` faults, and recognised by
/// [`describe_panic`] / the quiet panic hook.
#[derive(Debug, Clone)]
pub struct InjectedFault {
    pub site: String,
}

impl fmt::Display for InjectedFault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "injected fault at {}", self.site)
    }
}

/// Renders a caught panic payload as a one-line message: handles `&str` /
/// `String` payloads (ordinary `panic!`) and [`InjectedFault`], falling
/// back to a generic label for anything else.
pub fn describe_panic(payload: &(dyn Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else if let Some(f) = payload.downcast_ref::<InjectedFault>() {
        f.to_string()
    } else {
        "opaque panic payload".to_string()
    }
}

/// Installs (once per process) a panic hook that suppresses the default
/// stderr report for *expected* panics — [`InjectedFault`] payloads and
/// string payloads starting with `"injected"` — and delegates everything
/// else to the previously installed hook. Chaos runs and the fault-matrix
/// tests call this so recovered faults don't spray backtraces.
pub fn install_quiet_panic_hook() {
    static INSTALL: Once = Once::new();
    INSTALL.call_once(|| {
        let previous = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let payload = info.payload();
            let expected = payload.is::<InjectedFault>()
                || payload
                    .downcast_ref::<&str>()
                    .is_some_and(|s| s.starts_with("injected"))
                || payload
                    .downcast_ref::<String>()
                    .is_some_and(|s| s.starts_with("injected"));
            if !expected {
                previous(info);
            }
        }));
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_every_kind() {
        let inj = FaultInjector::parse("panic@pool.a#1,sat@exec.conv3#s7,dram:-128@fused.dram*#2")
            .unwrap();
        assert!(inj.is_enabled());
        assert_eq!(inj.check("pool.a"), Some(FaultKind::Panic));
        assert_eq!(inj.check("pool.a"), None); // #1 only fires once
        assert_eq!(inj.check("fused.dram7"), None); // occurrence 1, rule wants 2
        assert_eq!(inj.check("fused.dram7"), Some(FaultKind::DramDelta(-128)));
    }

    #[test]
    fn rejects_bad_specs() {
        for bad in [
            "",
            "panic",
            "panic@",
            "frob@site",
            "panic@site#0",
            "panic@site#x",
            "dram@site",
            "slow:5@site",
            "panic:3@site",
        ] {
            assert!(FaultInjector::parse(bad).is_err(), "accepted `{bad}`");
        }
    }

    /// Asserts `spec` is rejected with a message naming `class`.
    fn assert_never_applies(spec: &str, class: &str) {
        let err = FaultInjector::parse(spec).expect_err(spec);
        assert!(err.contains(&format!("`{class}`")), "`{spec}`: {err}");
    }

    #[test]
    fn rejects_sat_at_pool_sites() {
        assert_never_applies("sat@pool.*", "pool.*");
        assert_never_applies("sat@pool.conv2/wino.gemm#1", "pool.*");
    }

    #[test]
    fn rejects_sat_at_fused_dram_sites() {
        assert_never_applies("sat@fused.dram*", "fused.dram*");
        assert_never_applies("sat@fused.dram0#*", "fused.dram*");
    }

    #[test]
    fn rejects_dram_at_exec_sites() {
        assert_never_applies("dram:64@exec.*", "exec.*");
        assert_never_applies("dram:-8@exec.conv3#2", "exec.*");
    }

    #[test]
    fn rejects_dram_at_pool_sites() {
        assert_never_applies("dram:64@pool.*#*", "pool.*");
    }

    #[test]
    fn rejects_dram_at_fused_group_sites() {
        assert_never_applies("dram:64@fused.group*", "fused.group*");
        assert_never_applies("dram:64@fused.group0", "fused.group*");
    }

    #[test]
    fn rejects_dram_at_plan_build() {
        assert_never_applies("dram:64@plan.build", "plan.build");
    }

    #[test]
    fn accepts_kinds_some_reachable_site_applies() {
        for spec in [
            "panic@pool.*",
            "panic@plan.build#1",
            "sat@exec.conv3",
            "sat@fused.group0",
            "dram:4096@fused.dram*#*",
            // `fused.*` reaches the groups (sat) and the DRAM meters (dram).
            "sat@fused.*",
            "dram:8@fused.*",
            "sat@*",
            // Names no known site has are taken as written.
            "panic@here",
            "sat@here",
            "dram:1@elsewhere",
        ] {
            assert!(FaultInjector::parse(spec).is_ok(), "rejected `{spec}`");
        }
    }

    #[test]
    fn seeded_occurrence_is_deterministic_and_in_window() {
        let a = seeded_occurrence(7, "exec.conv3");
        assert_eq!(a, seeded_occurrence(7, "exec.conv3"));
        assert!((1..=16).contains(&a));
        // Different seeds disagree for at least one of a few sites.
        let moved = (0..8u64).any(|s| seeded_occurrence(s, "exec.conv3") != a);
        assert!(moved);
    }

    #[test]
    fn seeded_rule_fires_exactly_once() {
        let inj = FaultInjector::parse("sat@exec.c#s3").unwrap();
        let at = seeded_occurrence(3, "exec.c");
        let fired: Vec<u64> = (1..=16)
            .filter(|_| inj.check("exec.c") == Some(FaultKind::Saturate))
            .collect();
        assert_eq!(fired, vec![at]);
        assert_eq!(inj.fired_count(), 1);
    }

    #[test]
    fn prefix_patterns_match_and_counters_are_per_rule() {
        let inj = FaultInjector::parse("panic@pool.*#2").unwrap();
        // Occurrences accumulate across all sites matching the pattern.
        assert_eq!(inj.check("pool.x"), None);
        assert_eq!(inj.check("pool.y"), Some(FaultKind::Panic));
        assert_eq!(inj.check("other"), None);
    }

    #[test]
    fn disabled_injector_is_inert() {
        let inj = FaultInjector::disabled();
        assert!(!inj.is_enabled());
        assert_eq!(inj.check("anything"), None);
        assert_eq!(inj.trip("anything"), None);
        assert_eq!(inj.fired_count(), 0);
    }

    #[test]
    fn trip_panics_with_injected_payload() {
        let inj = FaultInjector::parse("panic@here").unwrap();
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            inj.trip("here");
        }))
        .unwrap_err();
        assert_eq!(describe_panic(err.as_ref()), "injected fault at here");
    }

    #[test]
    fn fall_back_counts_the_class_it_is_given() {
        install_quiet_panic_hook();
        let tel = Telemetry::enabled();
        let fault = |reason: String| format!("fault: {reason}");
        let sat = || -> Result<u8, Failure<String>> {
            Err(Failure::Fault(Fault {
                class: "saturation",
                reason: "injected saturation".into(),
            }))
        };
        let lenient = fall_back(FaultMode::Lenient, &tel, sat, Some(|| Ok(7)), fault);
        assert_eq!(lenient, Ok((7, Some("injected saturation".to_string()))));
        let strict = fall_back(FaultMode::Strict, &tel, sat, Some(|| Ok(7)), fault);
        assert_eq!(strict, Err("fault: injected saturation".to_string()));
        let panicked = fall_back(
            FaultMode::Lenient,
            &tel,
            || -> Result<u8, Failure<String>> { panic!("injected: boom") },
            Some(|| Ok(1)),
            fault,
        );
        assert_eq!(panicked, Ok((1, Some("injected: boom".to_string()))));
        let no_rung = fall_back(FaultMode::Lenient, &tel, sat, None::<fn() -> _>, fault);
        assert_eq!(no_rung, Err("fault: injected saturation".to_string()));
        let error = || -> Result<u8, Failure<String>> { Err(Failure::Error("shape".into())) };
        let propagated = fall_back(FaultMode::Lenient, &tel, error, Some(|| Ok(7)), fault);
        assert_eq!(propagated, Err("shape".to_string()));
        let s = tel.summary();
        assert_eq!(s.counter("exec.fallbacks"), 2);
        assert_eq!(s.counter("exec.fallbacks.saturation"), 1);
        assert_eq!(s.counter("exec.fallbacks.panic"), 1);
    }

    #[test]
    fn describe_panic_handles_common_payloads() {
        assert_eq!(describe_panic(&"boom"), "boom");
        assert_eq!(describe_panic(&String::from("boom")), "boom");
        assert_eq!(describe_panic(&42u32), "opaque panic payload");
    }
}
