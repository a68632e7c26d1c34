//! Declarative SLO engine: multi-window burn-rate rules over the
//! per-window telemetry signals, evaluated identically during a run
//! (alerts to stderr plus an `alert` trace event) and after the fact
//! from a decision log alone (`msweb slo-check`).
//!
//! # Rule grammar
//!
//! Rules load from a JSON document:
//!
//! ```json
//! {"rules": [
//!   {"name": "stretch-burn", "signal": "stretch", "budget": 1.5,
//!    "burn": [{"windows": 6, "rate": 1.0}, {"windows": 2, "rate": 2.0}]},
//!   {"name": "drop-budget", "signal": "drop_rate", "budget": 0.01,
//!    "burn": [{"windows": 4, "rate": 1.0}]}
//! ]}
//! ```
//!
//! * `signal` — what the rule watches per monitor window:
//!   `stretch` (the window's mean stretch over its completions;
//!   windows that complete nothing are skipped),
//!   `drop_rate` (window drops ÷ (drops + completions)), or
//!   `clamp_rate` (1 when the reservation controller's cap
//!   recomputation clamped in that window, else 0).
//! * `budget` — the SLO: the signal level the service is allowed to
//!   sustain.
//! * `burn` — one entry per alerting window: the rule *fires* at a
//!   monitor tick when the rolling mean of the signal over the last
//!   `windows` measured windows reaches `rate × budget`. Short windows
//!   with high rates catch fast burns; long windows with rate 1 catch
//!   slow budget exhaustion. An [`AlertEvent`] is emitted on each
//!   false→true edge of a burn condition, never re-emitted while it
//!   stays true.
//!
//! Everything is integer/window-indexed and f64-deterministic: for a
//! fixed event log the engine emits byte-identical alerts on every
//! machine, which is what lets `slo-check` golden fixtures gate CI.

use std::collections::VecDeque;

use serde::{ParseError, Value};

use crate::sched::{LogLine, LogReplay, ReplayError, TraceEvent};

use super::{fnum, obj, u};

/// What a rule watches, per monitor window.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SloSignal {
    /// Mean stretch of the window's completions.
    Stretch,
    /// Window drops ÷ (drops + completions).
    DropRate,
    /// 1 when the controller clamped the admission cap this window.
    ClampRate,
}

impl SloSignal {
    /// The signal's name in the rule grammar and alert output.
    pub fn as_str(self) -> &'static str {
        match self {
            SloSignal::Stretch => "stretch",
            SloSignal::DropRate => "drop_rate",
            SloSignal::ClampRate => "clamp_rate",
        }
    }

    /// Parse a signal name.
    pub fn parse(s: &str) -> Result<SloSignal, String> {
        match s {
            "stretch" => Ok(SloSignal::Stretch),
            "drop_rate" => Ok(SloSignal::DropRate),
            "clamp_rate" => Ok(SloSignal::ClampRate),
            other => Err(format!(
                "unknown signal {other:?} (expected stretch, drop_rate or clamp_rate)"
            )),
        }
    }
}

/// One alerting window of a rule: fire when the rolling mean over the
/// last `windows` measured windows reaches `rate × budget`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BurnWindow {
    /// Rolling-window length, in measured monitor windows (≥ 1).
    pub windows: usize,
    /// Burn-rate threshold as a multiple of the budget (> 0).
    pub rate: f64,
}

/// One declarative SLO rule.
#[derive(Debug, Clone, PartialEq)]
pub struct SloRule {
    /// Rule name, carried into every alert it fires.
    pub name: String,
    /// The watched signal.
    pub signal: SloSignal,
    /// The budget: the sustained signal level the SLO allows.
    pub budget: f64,
    /// The burn-rate alerting windows.
    pub burn: Vec<BurnWindow>,
}

/// A parsed, validated rules document.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SloRules {
    /// The rules, in document order.
    pub rules: Vec<SloRule>,
}

/// Why a rules document was rejected.
#[derive(Debug, Clone, PartialEq)]
pub enum SloRulesError {
    /// The text is not JSON.
    Json(ParseError),
    /// The document has no `rules` array.
    MissingRules,
    /// The `rules` array is empty.
    NoRules,
    /// A rule is malformed.
    Rule {
        /// The rule's position in the document, from 0.
        index: usize,
        /// What is wrong with it.
        reason: String,
    },
}

impl std::fmt::Display for SloRulesError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SloRulesError::Json(e) => write!(f, "invalid JSON: {e}"),
            SloRulesError::MissingRules => f.write_str("rules document missing 'rules' array"),
            SloRulesError::NoRules => f.write_str("rules document has no rules"),
            SloRulesError::Rule { index, reason } => write!(f, "rule {index}: {reason}"),
        }
    }
}

impl std::error::Error for SloRulesError {}

impl SloRules {
    /// Parse and validate a rules JSON document (see the module docs
    /// for the grammar).
    pub fn from_json(text: &str) -> Result<SloRules, SloRulesError> {
        let v = Value::parse(text).map_err(SloRulesError::Json)?;
        let mut rules = Vec::new();
        for (i, r) in v
            .get("rules")
            .and_then(Value::as_array)
            .ok_or(SloRulesError::MissingRules)?
            .iter()
            .enumerate()
        {
            let ctx = |reason: String| SloRulesError::Rule { index: i, reason };
            let name = r
                .get("name")
                .and_then(Value::as_str)
                .ok_or_else(|| ctx("missing 'name'".into()))?
                .to_string();
            if name.is_empty() {
                return Err(ctx("empty 'name'".into()));
            }
            let signal = SloSignal::parse(
                r.get("signal")
                    .and_then(Value::as_str)
                    .ok_or_else(|| ctx("missing 'signal'".into()))?,
            )
            .map_err(ctx)?;
            let budget = r
                .get("budget")
                .and_then(Value::as_f64)
                .ok_or_else(|| ctx("missing or non-numeric 'budget'".into()))?;
            if !(budget.is_finite() && budget > 0.0) {
                return Err(ctx(format!(
                    "budget must be finite and positive, got {budget}"
                )));
            }
            let mut burn = Vec::new();
            for (j, b) in r
                .get("burn")
                .and_then(Value::as_array)
                .ok_or_else(|| ctx("missing 'burn' array".into()))?
                .iter()
                .enumerate()
            {
                let windows = b
                    .get("windows")
                    .and_then(Value::as_u64)
                    .ok_or_else(|| ctx(format!("burn {j}: missing integer 'windows'")))?
                    as usize;
                if windows == 0 {
                    return Err(ctx(format!("burn {j}: 'windows' must be >= 1")));
                }
                let rate = b
                    .get("rate")
                    .and_then(Value::as_f64)
                    .ok_or_else(|| ctx(format!("burn {j}: missing numeric 'rate'")))?;
                if !(rate.is_finite() && rate > 0.0) {
                    return Err(ctx(format!("burn {j}: rate must be finite and positive")));
                }
                burn.push(BurnWindow { windows, rate });
            }
            if burn.is_empty() {
                return Err(ctx("'burn' array is empty".into()));
            }
            rules.push(SloRule {
                name,
                signal,
                budget,
                burn,
            });
        }
        if rules.is_empty() {
            return Err(SloRulesError::NoRules);
        }
        Ok(SloRules { rules })
    }
}

/// The per-window signal values one monitor tick yields: the driver's
/// per-window fold closes one at every tick, and [`LogReplay`] closes
/// one at every `tick` event of a log.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WindowSignals {
    /// Window end, microseconds of substrate time.
    pub at_us: u64,
    /// Mean stretch of the window's completions; `None` when nothing
    /// completed (the stretch history skips such windows).
    pub stretch: Option<f64>,
    /// Requests completed in the window.
    pub completed: u64,
    /// Requests dropped in the window.
    pub drops: u64,
    /// Whether the controller's cap recomputation clamped this window.
    pub clamped: bool,
}

impl WindowSignals {
    /// Window drops ÷ (drops + completions); 0 when both are 0.
    pub fn drop_rate(&self) -> f64 {
        let denom = self.completed + self.drops;
        if denom == 0 {
            0.0
        } else {
            self.drops as f64 / denom as f64
        }
    }
}

/// A fired burn-rate alert.
#[derive(Debug, Clone, PartialEq)]
pub struct AlertEvent {
    /// Window end the alert fired at, microseconds.
    pub at_us: u64,
    /// Name of the rule that fired.
    pub rule: String,
    /// The watched signal.
    pub signal: SloSignal,
    /// Rolling-window length that fired.
    pub windows: usize,
    /// The burn-rate threshold that was crossed.
    pub burn_rate: f64,
    /// Observed rolling mean of the signal.
    pub observed: f64,
    /// The rule's budget.
    pub budget: f64,
}

impl AlertEvent {
    /// The canonical single-line rendering, used both for stderr and
    /// the `slo-check` report (byte-deterministic for fixed inputs).
    pub fn to_line(&self) -> String {
        format!(
            "ALERT at_us={} rule={} signal={} windows={} burn={} observed={} budget={}",
            self.at_us,
            self.rule,
            self.signal.as_str(),
            self.windows,
            self.burn_rate,
            self.observed,
            self.budget
        )
    }

    /// The alert as a trace event, for runs that log their decisions.
    pub fn to_trace_event(&self) -> TraceEvent {
        TraceEvent::Alert {
            at_us: self.at_us,
            rule: self.rule.clone(),
            signal: self.signal.as_str().to_string(),
            windows: self.windows as u64,
            burn_rate: self.burn_rate,
            observed: self.observed,
            budget: self.budget,
        }
    }

    /// The alert as a JSON value (the `slo-check --json` report rows).
    pub fn to_value(&self) -> Value {
        obj(vec![
            ("at_us", u(self.at_us)),
            ("rule", Value::Str(self.rule.clone())),
            ("signal", Value::Str(self.signal.as_str().to_string())),
            ("windows", u(self.windows as u64)),
            ("burn_rate", fnum(self.burn_rate)),
            ("observed", fnum(self.observed)),
            ("budget", fnum(self.budget)),
        ])
    }
}

/// Per-rule evaluation state.
#[derive(Debug)]
struct RuleState {
    rule: SloRule,
    /// Signal history, newest last, bounded by the longest burn window.
    history: VecDeque<f64>,
    /// Which burn windows are currently firing (edge detection).
    active: Vec<bool>,
}

/// The burn-rate evaluator. Feed it one [`WindowSignals`] per monitor
/// tick; it returns the alerts that fired on that tick's edges.
#[derive(Debug)]
pub struct SloEngine {
    states: Vec<RuleState>,
    alerts_fired: u64,
}

impl SloEngine {
    /// An engine over a validated rule set.
    pub fn new(rules: SloRules) -> SloEngine {
        let states = rules
            .rules
            .into_iter()
            .map(|rule| {
                let depth = rule.burn.iter().map(|b| b.windows).max().unwrap_or(1);
                RuleState {
                    active: vec![false; rule.burn.len()],
                    history: VecDeque::with_capacity(depth),
                    rule,
                }
            })
            .collect();
        SloEngine {
            states,
            alerts_fired: 0,
        }
    }

    /// Total alerts fired so far.
    pub fn alerts_fired(&self) -> u64 {
        self.alerts_fired
    }

    /// Evaluate one window's signals; returns the newly firing alerts.
    pub fn observe(&mut self, s: &WindowSignals) -> Vec<AlertEvent> {
        let mut fired = Vec::new();
        for state in &mut self.states {
            let value = match state.rule.signal {
                SloSignal::Stretch => s.stretch,
                SloSignal::DropRate => Some(s.drop_rate()),
                SloSignal::ClampRate => Some(if s.clamped { 1.0 } else { 0.0 }),
            };
            let Some(value) = value else {
                continue; // unmeasured window: history unchanged
            };
            let depth = state.rule.burn.iter().map(|b| b.windows).max().unwrap_or(1);
            if state.history.len() == depth {
                state.history.pop_front();
            }
            state.history.push_back(value);
            for (i, b) in state.rule.burn.iter().enumerate() {
                if state.history.len() < b.windows {
                    state.active[i] = false;
                    continue;
                }
                // Oldest-to-newest summation keeps the f64 result
                // independent of ring internals.
                let skip = state.history.len() - b.windows;
                let sum: f64 = state.history.iter().skip(skip).sum();
                let observed = sum / b.windows as f64;
                let firing = observed >= b.rate * state.rule.budget;
                if firing && !state.active[i] {
                    fired.push(AlertEvent {
                        at_us: s.at_us,
                        rule: state.rule.name.clone(),
                        signal: state.rule.signal,
                        windows: b.windows,
                        burn_rate: b.rate,
                        observed,
                        budget: state.rule.budget,
                    });
                }
                state.active[i] = firing;
            }
        }
        self.alerts_fired += fired.len() as u64;
        fired
    }
}

/// The outcome of checking one decision log against a rule set.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SloCheckReport {
    /// Monitor windows (tick events) evaluated.
    pub windows: usize,
    /// Windows that completed at least one request (the stretch
    /// signal's history length).
    pub measured_windows: usize,
    /// Alerts the engine fired, in firing order.
    pub alerts: Vec<AlertEvent>,
    /// `alert` events already recorded in the log (by a run that had
    /// rules attached), counted for cross-reference.
    pub recorded_alerts: usize,
}

impl SloCheckReport {
    /// Whether the log breached the rules (any alert fired).
    pub fn breached(&self) -> bool {
        !self.alerts.is_empty()
    }

    /// The canonical text report: byte-deterministic for a fixed log
    /// and rule set. Ends with `result: ok` or `result: breach` (the
    /// CLI exits non-zero on breach).
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "slo-check: {} windows ({} measured), {} alerts, {} recorded in log",
            self.windows,
            self.measured_windows,
            self.alerts.len(),
            self.recorded_alerts
        );
        for a in &self.alerts {
            let _ = writeln!(out, "{}", a.to_line());
        }
        let _ = writeln!(
            out,
            "result: {}",
            if self.breached() { "breach" } else { "ok" }
        );
        out
    }

    /// The report as a JSON value (`slo-check --json`).
    pub fn to_value(&self) -> Value {
        obj(vec![
            ("windows", u(self.windows as u64)),
            ("measured_windows", u(self.measured_windows as u64)),
            (
                "alerts",
                Value::Array(self.alerts.iter().map(AlertEvent::to_value).collect()),
            ),
            ("recorded_alerts", u(self.recorded_alerts as u64)),
            ("breach", Value::Bool(self.breached())),
        ])
    }
}

/// Re-derive the per-window signals from a decision log and evaluate
/// `rules` over them.
///
/// `lines` is any event source [`LogReplay`] walks. The walker feeds the
/// log's events to the per-window fold the drivers feed during a run:
/// every `complete` event is a completion (with the demand its request's
/// latest `decision` recorded), every `drop` event is a loss (front-end
/// drops and fail-over losses alike), and every `tick` closes a window
/// whose clamp signal comes from the recorded run's reservation
/// controller. The result is deterministic for a fixed log regardless of
/// which substrate produced it.
///
/// Multi-run logs (several `meta` lines) reset the controller and the
/// fold per run; alert history carries across.
pub fn check_log<I>(lines: I, rules: &SloRules) -> Result<SloCheckReport, ReplayError>
where
    I: IntoIterator<Item = Result<LogLine, ReplayError>>,
{
    let mut engine = SloEngine::new(rules.clone());
    let mut report = SloCheckReport::default();
    let mut walk = LogReplay::new(lines);
    while let Some(step) = walk.step()? {
        if let Some(window) = step.window {
            report.windows += 1;
            report.measured_windows += usize::from(window.stretch.is_some());
            report.alerts.extend(engine.observe(&window));
        }
        if let TraceEvent::Alert { .. } = step.event {
            report.recorded_alerts += 1;
        }
    }
    if walk.runs() == 0 {
        return Err(ReplayError::Empty);
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::WindowFold;
    use msweb_simcore::SimDuration;

    fn rules(json: &str) -> SloRules {
        SloRules::from_json(json).expect("rules parse")
    }

    const STRETCH_RULE: &str = r#"{"rules":[
        {"name":"stretch-burn","signal":"stretch","budget":2.0,
         "burn":[{"windows":3,"rate":1.0},{"windows":1,"rate":3.0}]}
    ]}"#;

    fn window(at_us: u64, stretch: Option<f64>) -> WindowSignals {
        WindowSignals {
            at_us,
            stretch,
            completed: 1,
            drops: 0,
            clamped: false,
        }
    }

    #[test]
    fn rules_parse_and_validate() {
        let r = rules(STRETCH_RULE);
        assert_eq!(r.rules.len(), 1);
        assert_eq!(r.rules[0].signal, SloSignal::Stretch);
        assert_eq!(r.rules[0].burn.len(), 2);
        for (bad, message) in [
            ("{", "invalid JSON: "),
            (r#"{"rule":[]}"#, "rules document missing 'rules' array"),
            (r#"{"rules":[]}"#, "rules document has no rules"),
            (
                r#"{"rules":[{"name":"x","signal":"nope","budget":1,"burn":[{"windows":1,"rate":1}]}]}"#,
                "rule 0: unknown signal \"nope\"",
            ),
            (
                r#"{"rules":[{"name":"x","signal":"stretch","budget":0,"burn":[{"windows":1,"rate":1}]}]}"#,
                "rule 0: budget must be finite and positive, got 0",
            ),
            (
                r#"{"rules":[{"name":"x","signal":"stretch","budget":1,"burn":[{"windows":0,"rate":1}]}]}"#,
                "rule 0: burn 0: 'windows' must be >= 1",
            ),
            (
                r#"{"rules":[{"name":"x","signal":"stretch","budget":1,"burn":[]}]}"#,
                "rule 0: 'burn' array is empty",
            ),
        ] {
            let err = SloRules::from_json(bad).expect_err(bad);
            assert!(err.to_string().starts_with(message), "{bad}: {err}");
        }
        assert!(matches!(
            SloRules::from_json("{"),
            Err(SloRulesError::Json(_))
        ));
        assert_eq!(
            SloRules::from_json(r#"{"rules":[]}"#),
            Err(SloRulesError::NoRules)
        );
    }

    #[test]
    fn burn_alerts_fire_on_edges_only() {
        let mut engine = SloEngine::new(rules(STRETCH_RULE));
        // Fast burn: one window at 3× budget fires the short window.
        let fired = engine.observe(&window(1, Some(6.5)));
        assert_eq!(fired.len(), 1);
        assert_eq!(fired[0].windows, 1);
        assert_eq!(fired[0].burn_rate, 3.0);
        // Still burning: no re-fire while the condition stays true.
        let fired = engine.observe(&window(2, Some(6.5)));
        // ...but the slow window cannot fire yet (only 2 of 3 samples).
        assert!(fired.is_empty(), "{fired:?}");
        // Third hot window: the 3-window mean now crosses 1× budget.
        let fired = engine.observe(&window(3, Some(6.5)));
        assert_eq!(fired.len(), 1);
        assert_eq!(fired[0].windows, 3);
        // Recovery clears the edge detector; a new burn re-fires. The
        // first cool windows leave the 3-window mean above budget, so
        // the slow burn stays active (no re-fire) until it drains.
        for t in 4..8 {
            assert!(engine.observe(&window(t, Some(0.5))).is_empty());
        }
        // A hot window after full recovery re-fires both burn windows:
        // 9.0 ≥ 3×2.0 and mean(0.5, 0.5, 9.0) ≥ 1×2.0.
        let fired = engine.observe(&window(8, Some(9.0)));
        assert_eq!(fired.len(), 2);
        assert_eq!(engine.alerts_fired(), 4);
    }

    #[test]
    fn unmeasured_windows_do_not_dilute_the_stretch_history() {
        let mut engine = SloEngine::new(rules(
            r#"{"rules":[{"name":"s","signal":"stretch","budget":1.0,
                "burn":[{"windows":2,"rate":2.0}]}]}"#,
        ));
        assert!(engine.observe(&window(1, Some(2.5))).is_empty());
        // An empty window must not reset or dilute the rolling mean.
        assert!(engine.observe(&window(2, None)).is_empty());
        let fired = engine.observe(&window(3, Some(2.5)));
        assert_eq!(fired.len(), 1, "two measured windows at 2.5 ≥ 2×1.0");
    }

    #[test]
    fn clamp_and_drop_signals_evaluate() {
        let mut engine = SloEngine::new(rules(
            r#"{"rules":[
                {"name":"clamps","signal":"clamp_rate","budget":0.5,
                 "burn":[{"windows":2,"rate":1.0}]},
                {"name":"drops","signal":"drop_rate","budget":0.1,
                 "burn":[{"windows":1,"rate":1.0}]}
            ]}"#,
        ));
        let fired = engine.observe(&WindowSignals {
            at_us: 1,
            stretch: None,
            completed: 1,
            drops: 1,
            clamped: true,
        });
        assert_eq!(fired.len(), 1, "{fired:?}");
        assert_eq!(fired[0].rule, "drops");
        let fired = engine.observe(&WindowSignals {
            at_us: 2,
            stretch: None,
            completed: 0,
            drops: 0,
            clamped: true,
        });
        assert_eq!(fired.len(), 1);
        assert_eq!(fired[0].rule, "clamps");
        assert_eq!(fired[0].observed, 1.0);
    }

    #[test]
    fn fold_windows_drive_the_drop_rule() {
        let mut engine = SloEngine::new(rules(
            r#"{"rules":[{"name":"drops","signal":"drop_rate","budget":0.25,
                "burn":[{"windows":1,"rate":1.0}]}]}"#,
        ));
        let mut fold = WindowFold::new();
        let ms = SimDuration::from_millis;
        // Window 1: 10 completions, 0 drops.
        for _ in 0..10 {
            fold.record(ms(10), ms(10));
        }
        let w1 = fold.close(1, 0);
        assert_eq!((w1.completed, w1.drops, w1.clamped), (10, 0, false));
        assert!(engine.observe(&w1).is_empty());
        // Window 2: 6 completions and 4 drops → rate 0.4 ≥ budget; the
        // controller's clamp count moved (0 → 2).
        for _ in 0..6 {
            fold.record(ms(10), ms(10));
        }
        for _ in 0..4 {
            fold.note_drop();
        }
        let w2 = fold.close(2, 2);
        assert_eq!((w2.completed, w2.drops, w2.clamped), (6, 4, true));
        let fired = engine.observe(&w2);
        assert_eq!(fired.len(), 1);
        assert_eq!(fired[0].observed, 0.4);
        // Window 3: nothing happened and the clamp count stood still.
        let w3 = fold.close(3, 2);
        assert_eq!((w3.stretch, w3.drop_rate(), w3.clamped), (None, 0.0, false));
    }

    #[test]
    fn report_renders_deterministically() {
        let report = SloCheckReport {
            windows: 5,
            measured_windows: 4,
            alerts: vec![AlertEvent {
                at_us: 2_000_000,
                rule: "stretch-burn".into(),
                signal: SloSignal::Stretch,
                windows: 3,
                burn_rate: 1.0,
                observed: 2.5,
                budget: 2.0,
            }],
            recorded_alerts: 0,
        };
        assert!(report.breached());
        assert_eq!(
            report.render(),
            "slo-check: 5 windows (4 measured), 1 alerts, 0 recorded in log\n\
             ALERT at_us=2000000 rule=stretch-burn signal=stretch windows=3 burn=1 observed=2.5 budget=2\n\
             result: breach\n"
        );
    }
}
