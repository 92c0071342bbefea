//! Coarse test-task descriptions — the inputs a scheduler actually has.

use std::fmt;

/// A resource a test occupies exclusively while running.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Resource {
    /// The processor core (and its wrapper).
    Processor,
    /// The color conversion core.
    ColorConversion,
    /// The DCT core.
    Dct,
    /// The embedded memory core.
    Memory,
    /// The ATE channel through the EBI.
    AteChannel,
    /// The decompressor/compactor adaptor.
    Codec,
}

impl Resource {
    /// The resource a test model's core claim names (panics on any other
    /// name).
    pub(crate) fn of_core(core: &str) -> Resource {
        match core {
            "processor" => Resource::Processor,
            "color-conv" => Resource::ColorConversion,
            "dct" => Resource::Dct,
            "memory" => Resource::Memory,
            "codec" => Resource::Codec,
            _ => panic!("unknown core {core}"),
        }
    }
}

impl fmt::Display for Resource {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Resource::Processor => "processor",
            Resource::ColorConversion => "color-conv",
            Resource::Dct => "dct",
            Resource::Memory => "memory",
            Resource::AteChannel => "ate-channel",
            Resource::Codec => "codec",
        };
        f.write_str(s)
    }
}

/// Coarse description of one test sequence, as visible to a scheduler.
#[derive(Debug, Clone, PartialEq)]
pub struct TestTask {
    /// Task name.
    pub(crate) name: String,
    /// Estimated stand-alone duration in cycles.
    pub(crate) duration: u64,
    /// Estimated TAM bandwidth share in `[0, 1]` while running.
    pub(crate) tam_share: f64,
    /// Estimated power while running (arbitrary milliwatt-like units).
    pub(crate) power: u32,
    /// Resources held exclusively.
    pub resources: Vec<Resource>,
}

impl TestTask {
    /// Creates a task description.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < tam_share <= 1` and `duration > 0`.
    pub(crate) fn new(
        name: impl Into<String>,
        duration: u64,
        tam_share: f64,
        power: u32,
        resources: Vec<Resource>,
    ) -> Self {
        assert!(duration > 0, "task duration must be positive");
        assert!(
            tam_share > 0.0 && tam_share <= 1.0,
            "TAM share must be in (0, 1]"
        );
        TestTask {
            name: name.into(),
            duration,
            tam_share,
            power,
            resources,
        }
    }

    /// Whether two tasks may run concurrently (no shared exclusive
    /// resource).
    pub(crate) fn compatible_with(&self, other: &TestTask) -> bool {
        !self.resources.iter().any(|r| other.resources.contains(r))
    }
}

impl fmt::Display for TestTask {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: {} cycles, {:.0}% TAM, {} mW",
            self.name,
            self.duration,
            self.tam_share * 100.0,
            self.power
        )
    }
}

/// Global constraints a schedule must respect.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Constraints {
    /// Total TAM capacity (1.0 = the full shared bus).
    pub tam_capacity: f64,
    /// Peak power budget across concurrent tests.
    pub power_budget: u32,
}

impl Default for Constraints {
    fn default() -> Self {
        Constraints {
            tam_capacity: 1.0,
            power_budget: u32::MAX,
        }
    }
}

impl Constraints {
    /// Whether a set of tasks may form one concurrent session: pairwise
    /// resource-compatible and within the power budget.
    ///
    /// TAM over-subscription is allowed (tests then stretch — that is what
    /// the fluid estimator and the simulation quantify); resource conflicts
    /// and power are hard constraints.
    pub(crate) fn session_is_valid(&self, tasks: &[&TestTask]) -> bool {
        let power: u64 = tasks.iter().map(|t| t.power as u64).sum();
        if power > self.power_budget as u64 {
            return false;
        }
        for (i, a) in tasks.iter().enumerate() {
            for b in &tasks[i + 1..] {
                if !a.compatible_with(b) {
                    return false;
                }
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn task(name: &str, res: Vec<Resource>, power: u32) -> TestTask {
        TestTask::new(name, 1000, 0.5, power, res)
    }

    #[test]
    fn compatibility_is_resource_disjointness() {
        let a = task("a", vec![Resource::Processor, Resource::AteChannel], 1);
        let b = task("b", vec![Resource::Dct], 1);
        let c = task("c", vec![Resource::AteChannel, Resource::Dct], 1);
        assert!(a.compatible_with(&b));
        assert!(b.compatible_with(&a));
        assert!(!a.compatible_with(&c));
        assert!(!b.compatible_with(&c));
    }

    #[test]
    fn constraints_enforce_power_and_resources() {
        let a = task("a", vec![Resource::Processor], 60);
        let b = task("b", vec![Resource::Dct], 50);
        let c = task("c", vec![Resource::Dct], 10);
        let tight = Constraints {
            tam_capacity: 1.0,
            power_budget: 100,
        };
        assert!(tight.session_is_valid(&[&a]));
        assert!(!tight.session_is_valid(&[&a, &b]), "power over budget");
        assert!(!tight.session_is_valid(&[&b, &c]), "resource conflict");
        let loose = Constraints::default();
        assert!(loose.session_is_valid(&[&a, &b]));
    }

    #[test]
    #[should_panic(expected = "TAM share")]
    fn invalid_share_panics() {
        let _ = TestTask::new("x", 10, 1.5, 0, vec![]);
    }
}
