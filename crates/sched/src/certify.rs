//! Certified exploration: proof-carrying pruning of the
//! explore-then-validate loop.
//!
//! [`explore`] ranks candidates by a coarse estimate and the paper's loop
//! then simulates every finalist, because the estimate is unsound in both
//! directions. The certified variant instead computes the
//! [`tve_lint::ScheduleEnvelope`] of each candidate — a *sound* `[lo, hi]`
//! interval on its simulated test length — and simulates candidates
//! fastest-estimate-first: once a simulated incumbent strictly dominates a
//! candidate's best case `(total.lo, peak_power)`, the candidate's true
//! point is dominated too and it can be discarded **without simulation**,
//! carrying a [`PruneProof`] naming the incumbent, the bound and the
//! margin.
//!
//! Because pruning only ever removes points that are strictly dominated by
//! a *simulated* incumbent, the resulting Pareto front is identical to the
//! exhaustive one — `tests/bounds_contract.rs` checks the two fronts
//! byte-for-byte.

use std::fmt;
use std::time::Instant;

use tve_core::Schedule;
use tve_lint::schedule_envelope;
use tve_soc::{ScenarioMetrics, SocConfig, SocTestPlan};

use crate::explore::{explore, Candidate};
use crate::task::{Constraints, TestTask};

/// The machine-checkable record justifying one pruned candidate: a
/// simulated incumbent strictly dominates the candidate's certified best
/// case, so the candidate cannot reach the Pareto front.
#[derive(Debug, Clone)]
pub struct PruneProof {
    /// Name of the pruned candidate.
    pub candidate: String,
    /// Name of the dominating, already-simulated incumbent.
    pub(crate) incumbent: String,
    /// The incumbent's *simulated* total cycles.
    pub(crate) incumbent_cycles: u64,
    /// The incumbent's static peak-power coordinate.
    pub(crate) incumbent_power: u64,
    /// The candidate's certified lower bound on total cycles
    /// (`ScheduleEnvelope::total.lo`).
    pub(crate) bound_cycles: u64,
    /// The candidate's static peak-power coordinate.
    pub(crate) candidate_power: u64,
    /// How far the bound sits above the incumbent
    /// (`bound_cycles - incumbent_cycles`; 0 when the power axis decides).
    pub(crate) margin_cycles: u64,
}

impl fmt::Display for PruneProof {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: lower bound {:.1} Mcycles (power {}) dominated by {} at {:.1} Mcycles \
             (power {}), margin {:.1} Mcycles",
            self.candidate,
            self.bound_cycles as f64 / 1e6,
            self.candidate_power,
            self.incumbent,
            self.incumbent_cycles as f64 / 1e6,
            self.incumbent_power,
            self.margin_cycles as f64 / 1e6,
        )
    }
}

/// What happened to one candidate of a certified exploration.
#[derive(Debug, Clone)]
pub enum CertifiedOutcome {
    /// The candidate was simulated (it could still have reached the
    /// front when its turn came).
    Simulated(Box<ScenarioMetrics>),
    /// The candidate was discarded without simulation, with proof.
    Pruned(PruneProof),
    /// Simulation failed (a malformed candidate that slipped past
    /// validation — not produced by [`explore_certified`]'s generators).
    Failed(String),
}

/// One candidate of a certified exploration with its envelope and fate.
#[derive(Debug, Clone)]
pub struct CertifiedCandidate {
    /// The explored candidate (schedule, coarse estimate).
    pub(crate) candidate: Candidate,
    /// Simulated, pruned-with-proof, or failed.
    pub outcome: CertifiedOutcome,
    /// Whether the candidate is on the (simulated-cycles × static-power)
    /// Pareto front. Pruned candidates are never on the front — that is
    /// what their proof establishes.
    pub(crate) on_front: bool,
}

/// Result of [`explore_certified`], candidates fastest-estimate first.
#[derive(Debug, Clone)]
pub struct CertifiedExploreReport {
    /// All candidates with envelopes and outcomes.
    pub candidates: Vec<CertifiedCandidate>,
    /// Wall time spent computing envelopes, in nanoseconds (the static
    /// analysis cost the pruning buys simulations with).
    pub analysis_ns: u128,
    /// Envelope violations observed on simulated candidates (always empty
    /// unless the bounds model is unsound — the contract tests gate this).
    pub violations: Vec<String>,
}

impl CertifiedExploreReport {
    /// Number of simulated candidates.
    pub fn simulated(&self) -> usize {
        self.candidates
            .iter()
            .filter(|c| matches!(c.outcome, CertifiedOutcome::Simulated(_)))
            .count()
    }

    /// Number of candidates pruned with proof.
    pub fn pruned(&self) -> usize {
        self.candidates
            .iter()
            .filter(|c| matches!(c.outcome, CertifiedOutcome::Pruned(_)))
            .count()
    }

    /// Fraction of candidates discarded without simulation.
    pub fn pruned_fraction(&self) -> f64 {
        if self.candidates.is_empty() {
            0.0
        } else {
            self.pruned() as f64 / self.candidates.len() as f64
        }
    }

    /// The proof records of all pruned candidates, in candidate order.
    pub fn proofs(&self) -> impl Iterator<Item = &PruneProof> {
        self.candidates.iter().filter_map(|c| match &c.outcome {
            CertifiedOutcome::Pruned(p) => Some(p),
            _ => None,
        })
    }

    /// The Pareto front as `(name, simulated_cycles, static_power)`
    /// triples, sorted by cycles then power then name.
    pub fn front_points(&self) -> Vec<(String, u64, u64)> {
        let mut pts: Vec<(String, u64, u64)> = self
            .candidates
            .iter()
            .filter(|c| c.on_front)
            .filter_map(|c| match &c.outcome {
                CertifiedOutcome::Simulated(m) => Some((
                    c.candidate.schedule.name.clone(),
                    m.total_cycles,
                    c.candidate.estimate.peak_power,
                )),
                _ => None,
            })
            .collect();
        pts.sort();
        pts
    }

    /// A canonical one-line rendering of [`Self::front_points`] — two
    /// explorations returned the same front iff the signatures are
    /// byte-identical.
    pub fn front_signature(&self) -> String {
        self.front_points()
            .iter()
            .map(|(n, c, p)| format!("{n}={c}/{p}"))
            .collect::<Vec<_>>()
            .join(";")
    }
}

/// Strict Pareto dominance of `(c1, p1)` over `(c2, p2)` — the exact rule
/// [`explore`] uses for its estimate-based front.
fn dominates(c1: u64, p1: u64, c2: u64, p2: u64) -> bool {
    (c1 < c2 && p1 <= p2) || (c1 <= c2 && p1 < p2)
}

/// Explore-then-validate with certified pruning.
///
/// Candidates come from [`explore`] (sequential, greedy, optimal, plus
/// `extra`), ranked fastest-estimate first. Each is analyzed statically;
/// it is simulated unless `prune` is set and a simulated incumbent
/// strictly dominates its certified best case, in which case it is
/// discarded with a [`PruneProof`]. With `prune = false` every candidate
/// is simulated — the exhaustive baseline the contract tests compare
/// fronts against.
pub fn explore_certified(
    config: &SocConfig,
    plan: &SocTestPlan,
    tasks: &[TestTask],
    constraints: &Constraints,
    extra: &[Schedule],
    prune: bool,
) -> CertifiedExploreReport {
    let report = explore(tasks, constraints, extra);
    let mut out: Vec<CertifiedCandidate> = Vec::with_capacity(report.candidates.len());
    let mut analysis_ns = 0u128;
    let mut violations = Vec::new();
    // (name, simulated cycles, static power) of everything simulated so far.
    let mut incumbents: Vec<(String, u64, u64)> = Vec::new();

    for candidate in report.candidates {
        let started = Instant::now();
        let envelope = schedule_envelope(config, plan, &candidate.schedule, 0);
        analysis_ns += started.elapsed().as_nanos();
        let power = candidate.estimate.peak_power;

        let proof = if prune {
            incumbents
                .iter()
                .find(|(_, ic, ip)| dominates(*ic, *ip, envelope.total.lo, power))
                .map(|(name, ic, ip)| PruneProof {
                    candidate: candidate.schedule.name.clone(),
                    incumbent: name.clone(),
                    incumbent_cycles: *ic,
                    incumbent_power: *ip,
                    bound_cycles: envelope.total.lo,
                    candidate_power: power,
                    margin_cycles: envelope.total.lo.saturating_sub(*ic),
                })
        } else {
            None
        };

        let outcome = match proof {
            Some(p) => CertifiedOutcome::Pruned(p),
            None => match tve_soc::run_scenario(config, plan, &candidate.schedule) {
                Ok(metrics) => {
                    let obs = tve_lint::observe_metrics(
                        &metrics,
                        &tve_lint::task_bounds(config, plan, 0),
                    );
                    violations.extend(envelope.check(&obs));
                    incumbents.push((candidate.schedule.name.clone(), metrics.total_cycles, power));
                    CertifiedOutcome::Simulated(Box::new(metrics))
                }
                Err(e) => CertifiedOutcome::Failed(e.to_string()),
            },
        };

        out.push(CertifiedCandidate {
            candidate,
            outcome,
            on_front: false,
        });
    }

    // Front marking over the simulated points, with the same strict rule
    // the estimate-based front uses.
    let points: Vec<(u64, u64)> = out
        .iter()
        .filter_map(|c| match &c.outcome {
            CertifiedOutcome::Simulated(m) => {
                Some((m.total_cycles, c.candidate.estimate.peak_power))
            }
            _ => None,
        })
        .collect();
    for c in &mut out {
        if let CertifiedOutcome::Simulated(m) = &c.outcome {
            let (cy, pw) = (m.total_cycles, c.candidate.estimate.peak_power);
            c.on_front = !points.iter().any(|&(oc, op)| dominates(oc, op, cy, pw));
        }
    }

    CertifiedExploreReport {
        candidates: out,
        analysis_ns,
        violations,
    }
}

/// Deterministically enumerates valid session partitions of `tasks` (every
/// phase passes `Constraints::session_is_valid`), up to `limit`
/// schedules, named `enum 1…n` — the candidate pool that lets certified
/// exploration show its pruning on more than a handful of hand-written
/// schedules. Merge-heavy partitions come first.
pub fn enumerate_schedules(
    tasks: &[TestTask],
    constraints: &Constraints,
    limit: usize,
) -> Vec<Schedule> {
    fn rec(
        tasks: &[TestTask],
        constraints: &Constraints,
        limit: usize,
        next: usize,
        phases: &mut Vec<Vec<usize>>,
        out: &mut Vec<Schedule>,
    ) {
        if out.len() >= limit {
            return;
        }
        if next == tasks.len() {
            out.push(Schedule::new(
                format!("enum {}", out.len() + 1),
                phases.clone(),
            ));
            return;
        }
        for i in 0..phases.len() {
            phases[i].push(next);
            let members: Vec<&TestTask> = phases[i].iter().map(|&t| &tasks[t]).collect();
            if constraints.session_is_valid(&members) {
                rec(tasks, constraints, limit, next + 1, phases, out);
            }
            phases[i].pop();
            if out.len() >= limit {
                return;
            }
        }
        phases.push(vec![next]);
        rec(tasks, constraints, limit, next + 1, phases, out);
        phases.pop();
    }

    let mut out = Vec::new();
    let mut phases = Vec::new();
    rec(tasks, constraints, limit, 0, &mut phases, &mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::estimate::estimate_tasks;
    use tve_soc::paper_schedules;

    fn mini() -> (SocConfig, SocTestPlan) {
        let mut config = SocConfig::small();
        config.memory_words = 64;
        (config, SocTestPlan::small())
    }

    #[test]
    fn certified_front_matches_exhaustive_and_proofs_hold() {
        let (config, plan) = mini();
        let tasks = estimate_tasks(&config, &plan);
        let extra: Vec<Schedule> = paper_schedules()
            .into_iter()
            .chain(enumerate_schedules(&tasks, &Constraints::default(), 12))
            .collect();
        let exhaustive = explore_certified(
            &config,
            &plan,
            &tasks,
            &Constraints::default(),
            &extra,
            false,
        );
        let certified = explore_certified(
            &config,
            &plan,
            &tasks,
            &Constraints::default(),
            &extra,
            true,
        );
        assert!(
            exhaustive.violations.is_empty(),
            "{:?}",
            exhaustive.violations
        );
        assert!(
            certified.violations.is_empty(),
            "{:?}",
            certified.violations
        );
        assert_eq!(exhaustive.pruned(), 0);
        assert_eq!(
            exhaustive.front_signature(),
            certified.front_signature(),
            "pruning must not change the front"
        );
        assert_eq!(
            certified.simulated() + certified.pruned(),
            certified.candidates.len()
        );
        // Every proof is internally consistent and names a real incumbent.
        for proof in certified.proofs() {
            let incumbent = certified
                .candidates
                .iter()
                .find(|c| c.candidate.schedule.name == proof.incumbent)
                .expect("incumbent is a candidate");
            match &incumbent.outcome {
                CertifiedOutcome::Simulated(m) => {
                    assert_eq!(m.total_cycles, proof.incumbent_cycles)
                }
                other => panic!("incumbent was not simulated: {other:?}"),
            }
            assert!(dominates(
                proof.incumbent_cycles,
                proof.incumbent_power,
                proof.bound_cycles,
                proof.candidate_power
            ));
        }
    }

    #[test]
    fn enumerated_schedules_are_valid_deterministic_and_distinct() {
        let tasks = estimate_tasks(&SocConfig::paper(), &SocTestPlan::paper());
        let a = enumerate_schedules(&tasks, &Constraints::default(), 16);
        let b = enumerate_schedules(&tasks, &Constraints::default(), 16);
        assert_eq!(a.len(), 16);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.phases, y.phases, "enumeration is deterministic");
        }
        for s in &a {
            s.validate(tasks.len()).expect("structurally valid");
            for phase in &s.phases {
                let members: Vec<&TestTask> = phase.iter().map(|&t| &tasks[t]).collect();
                assert!(Constraints::default().session_is_valid(&members));
            }
        }
        let mut shapes: Vec<_> = a.iter().map(|s| s.phases.clone()).collect();
        shapes.sort();
        shapes.dedup();
        assert_eq!(shapes.len(), a.len(), "partitions are distinct");
    }
}
