//! Schedule construction: sequential, greedy session packing, and the
//! exact set-partition optimum for small task sets.

use tve_core::Schedule;

use crate::estimate::estimate_schedule;
use crate::task::{Constraints, TestTask};

/// The trivial schedule: every test in its own phase, in input order.
pub(crate) fn sequential_schedule(tasks: &[TestTask]) -> Schedule {
    Schedule::new("sequential", (0..tasks.len()).map(|i| vec![i]).collect())
}

/// Greedy session packing (longest-processing-time first): repeatedly opens
/// a session with the longest unscheduled task and fills it with the
/// longest compatible tasks that keep the session valid under
/// `constraints`.
pub(crate) fn greedy_schedule(tasks: &[TestTask], constraints: &Constraints) -> Schedule {
    let mut order: Vec<usize> = (0..tasks.len()).collect();
    order.sort_by_key(|&i| std::cmp::Reverse(tasks[i].duration));
    let mut scheduled = vec![false; tasks.len()];
    let mut phases = Vec::new();
    for &seed in &order {
        if scheduled[seed] {
            continue;
        }
        let mut session = vec![seed];
        scheduled[seed] = true;
        for &cand in &order {
            if scheduled[cand] {
                continue;
            }
            let mut trial: Vec<&TestTask> = session.iter().map(|&i| &tasks[i]).collect();
            trial.push(&tasks[cand]);
            if constraints.session_is_valid(&trial) {
                session.push(cand);
                scheduled[cand] = true;
            }
        }
        phases.push(session);
    }
    Schedule::new("greedy-lpt", phases)
}

/// Exact minimum-makespan session partition by subset dynamic programming
/// (`O(3^n)`): finds the set of sessions minimizing the summed fluid
/// session durations, subject to `constraints`.
///
/// # Panics
///
/// Panics if `tasks.len() > 16` (the DP would explode; use
/// [`greedy_schedule`] instead).
pub(crate) fn optimal_schedule(tasks: &[TestTask], constraints: &Constraints) -> Schedule {
    let n = tasks.len();
    assert!(
        n <= 16,
        "optimal_schedule is exponential; use greedy beyond 16 tasks"
    );
    if n == 0 {
        return Schedule::new("optimal", vec![]);
    }
    let full = (1usize << n) - 1;

    // Pre-compute validity and fluid duration of every subset-session.
    let mut session_dur = vec![None::<u64>; full + 1];
    for (set, dur) in session_dur.iter_mut().enumerate().skip(1) {
        let members: Vec<usize> = (0..n).filter(|&i| set >> i & 1 == 1).collect();
        let refs: Vec<&TestTask> = members.iter().map(|&i| &tasks[i]).collect();
        if constraints.session_is_valid(&refs) {
            let sched = Schedule::new("probe", vec![members]);
            *dur = Some(estimate_schedule(tasks, &sched).total_cycles);
        }
    }

    // best[S] = (cost, chosen first session) covering exactly S.
    let mut best: Vec<Option<(u64, usize)>> = vec![None; full + 1];
    best[0] = Some((0, 0));
    for set in 1..=full {
        // Iterate sub-sessions containing the lowest set bit (canonical
        // decomposition avoids revisiting permutations).
        let low = set & set.wrapping_neg();
        let mut sub = set;
        let mut found: Option<(u64, usize)> = None;
        while sub > 0 {
            if sub & low != 0 {
                if let (Some(d), Some((rest, _))) = (session_dur[sub], best[set & !sub]) {
                    let cost = d + rest;
                    if found.is_none_or(|(c, _)| cost < c) {
                        found = Some((cost, sub));
                    }
                }
            }
            sub = (sub - 1) & set;
        }
        best[set] = found;
    }

    let mut phases = Vec::new();
    let mut set = full;
    while set != 0 {
        let (_, sub) = best[set].expect("singleton sessions are always valid");
        phases.push((0..n).filter(|&i| sub >> i & 1 == 1).collect());
        set &= !sub;
    }
    // Longest session first, for a stable presentation order.
    phases.sort_by_key(|p: &Vec<usize>| {
        std::cmp::Reverse(p.iter().map(|&i| tasks[i].duration).max().unwrap_or(0))
    });
    Schedule::new("optimal", phases)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::task::Resource;

    fn t(name: &str, dur: u64, share: f64, res: Vec<Resource>) -> TestTask {
        TestTask::new(name, dur, share, 10, res)
    }

    #[test]
    fn sequential_covers_everything_once() {
        let tasks = vec![t("a", 1, 0.1, vec![]), t("b", 1, 0.1, vec![])];
        let s = sequential_schedule(&tasks);
        s.validate(2).unwrap();
        assert_eq!(s.phases.len(), 2);
    }

    #[test]
    fn greedy_respects_resource_conflicts() {
        let tasks = vec![
            t("a", 100, 0.3, vec![Resource::Processor]),
            t("b", 90, 0.3, vec![Resource::Processor]),
            t("c", 80, 0.3, vec![Resource::Dct]),
        ];
        let s = greedy_schedule(&tasks, &Constraints::default());
        s.validate(3).unwrap();
        // a and b conflict; c joins a's session.
        assert!(s.phases.iter().any(|p| p.contains(&0) && p.contains(&2)));
        assert!(!s.phases.iter().any(|p| p.contains(&0) && p.contains(&1)));
    }

    #[test]
    fn greedy_beats_sequential_when_compatible() {
        let tasks = vec![
            t("a", 100, 0.4, vec![Resource::Processor]),
            t("b", 100, 0.4, vec![Resource::Dct]),
        ];
        let seq = estimate_schedule(&tasks, &sequential_schedule(&tasks)).total_cycles;
        let greedy = estimate_schedule(&tasks, &greedy_schedule(&tasks, &Constraints::default()))
            .total_cycles;
        assert_eq!(seq, 200);
        assert_eq!(greedy, 100);
    }

    #[test]
    fn optimal_finds_the_known_best_partition() {
        // Three tasks: a|b conflict, c compatible with both; optimum pairs
        // c with the longer conflicting task.
        let tasks = vec![
            t("a", 100, 0.4, vec![Resource::Processor]),
            t("b", 60, 0.4, vec![Resource::Processor]),
            t("c", 90, 0.4, vec![Resource::Dct]),
        ];
        let s = optimal_schedule(&tasks, &Constraints::default());
        s.validate(3).unwrap();
        let total = estimate_schedule(&tasks, &s).total_cycles;
        assert_eq!(total, 160, "{s}");
    }

    #[test]
    fn optimal_is_never_worse_than_greedy() {
        use tve_soc::{SocConfig, SocTestPlan};
        let tasks = crate::estimate::estimate_tasks(&SocConfig::paper(), &SocTestPlan::paper());
        let c = Constraints::default();
        let g = estimate_schedule(&tasks, &greedy_schedule(&tasks, &c)).total_cycles;
        let o = estimate_schedule(&tasks, &optimal_schedule(&tasks, &c)).total_cycles;
        assert!(o <= g, "optimal {o} vs greedy {g}");
    }

    #[test]
    fn power_budget_forces_serialization() {
        let tasks = vec![
            t("a", 100, 0.2, vec![Resource::Processor]),
            t("b", 100, 0.2, vec![Resource::Dct]),
        ];
        let mut hot = tasks.clone();
        hot[0].power = 80;
        hot[1].power = 80;
        let tight = Constraints {
            tam_capacity: 1.0,
            power_budget: 100,
        };
        let s = greedy_schedule(&hot, &tight);
        assert_eq!(s.phases.len(), 2, "{s}");
        let o = optimal_schedule(&hot, &tight);
        assert_eq!(o.phases.len(), 2, "{o}");
    }
}
