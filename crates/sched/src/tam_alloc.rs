//! TAM wire allocation and rectangle-packing schedules.
//!
//! The classic co-optimization problem behind the paper's scheduling
//! discussion (its reference \[8\] optimizes a bus-based test data
//! transportation mechanism): each core test is a *rectangle* — TAM wires
//! assigned (width) × test time at that width (height) — and the scheduler
//! packs rectangles into a strip of the chip's total TAM width, minimizing
//! the makespan. This module provides the idealized width/time model, a
//! shelf-packing heuristic with per-core width selection, validity
//! checking, and the classic test-time-versus-TAM-width staircase sweep.

use std::fmt;

/// A core test's TAM view: data volume plus the width range its wrapper
/// design supports.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CoreTestSpec {
    /// Core/test name.
    pub(crate) name: String,
    /// Total test data volume in bits (stimuli + responses on the TAM).
    pub(crate) total_bits: u64,
    /// Minimum usable TAM width (serial floor is 1).
    pub min_width: u32,
    /// Maximum usable width (wrapper scan-chain bound).
    pub(crate) max_width: u32,
}

impl CoreTestSpec {
    /// Creates a spec.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < min_width <= max_width` and `total_bits > 0`.
    pub fn new(name: impl Into<String>, total_bits: u64, min_width: u32, max_width: u32) -> Self {
        assert!(total_bits > 0, "test moves data");
        assert!(
            min_width > 0 && min_width <= max_width,
            "width range must be sane"
        );
        CoreTestSpec {
            name: name.into(),
            total_bits,
            min_width,
            max_width,
        }
    }

    /// Idealized test time at `width` TAM wires (perfectly balanced
    /// wrapper chains): `ceil(total_bits / width)`.
    ///
    /// # Panics
    ///
    /// Panics if `width` is outside the supported range.
    pub(crate) fn time_at(&self, width: u32) -> u64 {
        assert!(
            (self.min_width..=self.max_width).contains(&width),
            "width {width} outside {}..={}",
            self.min_width,
            self.max_width
        );
        self.total_bits.div_ceil(width as u64)
    }
}

/// One placed rectangle of a TAM assignment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Placement {
    /// Index into the spec list.
    pub(crate) test: usize,
    /// First assigned TAM wire.
    pub(crate) wire_start: u32,
    /// Number of assigned wires.
    pub(crate) width: u32,
    /// Start time.
    pub(crate) start: u64,
    /// End time (`start + time_at(width)`).
    pub(crate) end: u64,
}

/// A complete TAM assignment: placements plus the makespan.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TamAssignment {
    /// Total strip width packed into.
    pub(crate) tam_width: u32,
    /// The placements, in packing order.
    pub(crate) placements: Vec<Placement>,
    /// Completion time of the last test.
    pub makespan: u64,
}

impl fmt::Display for TamAssignment {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "TAM width {}: makespan {} cycles",
            self.tam_width, self.makespan
        )?;
        for p in &self.placements {
            writeln!(
                f,
                "  test {}: wires {}..{} time {}..{}",
                p.test,
                p.wire_start,
                p.wire_start + p.width,
                p.start,
                p.end
            )?;
        }
        Ok(())
    }
}

impl TamAssignment {
    /// Checks geometric validity: every placement inside the strip, within
    /// its spec's width range, with the correct duration, and no two
    /// placements overlapping in wire × time space.
    ///
    /// # Panics
    ///
    /// Panics (with a description) on any violation — this is a
    /// self-check for schedulers, not an error path.
    pub fn assert_valid(&self, specs: &[CoreTestSpec]) {
        let mut seen = vec![false; specs.len()];
        for p in &self.placements {
            let spec = &specs[p.test];
            assert!(!seen[p.test], "test {} placed twice", p.test);
            seen[p.test] = true;
            assert!(
                p.wire_start + p.width <= self.tam_width,
                "placement exceeds the strip"
            );
            assert!(
                (spec.min_width..=spec.max_width).contains(&p.width),
                "width outside the spec range"
            );
            assert_eq!(p.end - p.start, spec.time_at(p.width), "duration");
            assert!(p.end <= self.makespan, "makespan too small");
        }
        assert!(seen.iter().all(|&s| s), "every test placed");
        for (i, a) in self.placements.iter().enumerate() {
            for b in &self.placements[i + 1..] {
                let wires_overlap =
                    a.wire_start < b.wire_start + b.width && b.wire_start < a.wire_start + a.width;
                let time_overlap = a.start < b.end && b.start < a.end;
                assert!(
                    !(wires_overlap && time_overlap),
                    "placements {} and {} collide",
                    a.test,
                    b.test
                );
            }
        }
    }

    /// The TAM utilization of the packing: used wire-cycles over
    /// `tam_width × makespan`.
    pub fn utilization(&self) -> f64 {
        if self.makespan == 0 {
            return 0.0;
        }
        let used: u64 = self
            .placements
            .iter()
            .map(|p| p.width as u64 * (p.end - p.start))
            .sum();
        used as f64 / (self.tam_width as u64 * self.makespan) as f64
    }
}

/// The trivial lower bound on any assignment's makespan: the strip must
/// carry all bits, and no test can beat its own max-width time.
pub fn makespan_lower_bound(specs: &[CoreTestSpec], tam_width: u32) -> u64 {
    let volume: u64 = specs.iter().map(|s| s.total_bits).sum();
    let volume_bound = volume.div_ceil(tam_width as u64);
    let longest = specs
        .iter()
        .map(|s| s.time_at(s.max_width.min(tam_width).max(s.min_width)))
        .max()
        .unwrap_or(0);
    volume_bound.max(longest)
}

/// Shelf-packing heuristic: sort tests by data volume (largest first);
/// each test takes the width that, on the emptiest shelf position, best
/// balances the strip — concretely, it is granted
/// `min(max_width, remaining shelf width)` wires on the shelf that
/// currently ends earliest, opening a new shelf when none fits.
///
/// # Panics
///
/// Panics if any spec's `min_width` exceeds `tam_width`.
pub fn pack_tam(specs: &[CoreTestSpec], tam_width: u32) -> TamAssignment {
    for s in specs {
        assert!(
            s.min_width <= tam_width,
            "test '{}' needs more wires than the TAM has",
            s.name
        );
    }
    let mut order: Vec<usize> = (0..specs.len()).collect();
    order.sort_by_key(|&i| std::cmp::Reverse(specs[i].total_bits));

    // Shelves: (start_time, end_time, used_width).
    let mut shelves: Vec<(u64, u64, u32)> = Vec::new();
    let mut placements = Vec::new();
    for &i in &order {
        let spec = &specs[i];
        // Prefer the shelf that starts earliest and still has room.
        let slot = shelves
            .iter()
            .enumerate()
            .filter(|(_, &(_, _, used))| tam_width - used >= spec.min_width)
            .min_by_key(|(_, &(start, _, _))| start)
            .map(|(k, _)| k);
        let shelf = match slot {
            Some(k) => k,
            None => {
                let start = shelves.iter().map(|&(_, end, _)| end).max().unwrap_or(0);
                shelves.push((start, start, 0));
                shelves.len() - 1
            }
        };
        let (start, end, used) = shelves[shelf];
        let width = spec.max_width.min(tam_width - used);
        let dur = spec.time_at(width.max(spec.min_width));
        let width = width.max(spec.min_width);
        placements.push(Placement {
            test: i,
            wire_start: used,
            width,
            start,
            end: start + dur,
        });
        shelves[shelf] = (start, end.max(start + dur), used + width);
    }
    let makespan = placements.iter().map(|p| p.end).max().unwrap_or(0);
    TamAssignment {
        tam_width,
        placements,
        makespan,
    }
}

/// The classic staircase: best shelf-packing makespan achievable with *up
/// to* each TAM width, as `(width, makespan)` pairs.
///
/// A wider TAM can always leave wires unused and replay a narrower
/// packing, so the sweep reports the running minimum over ascending
/// widths — which also irons out the (expected) non-monotonicity of the
/// shelf heuristic itself.
///
/// # Panics
///
/// Panics if `widths` is not ascending.
pub fn tam_width_sweep(
    specs: &[CoreTestSpec],
    widths: impl IntoIterator<Item = u32>,
) -> Vec<(u32, u64)> {
    let mut best = u64::MAX;
    let mut prev = 0u32;
    widths
        .into_iter()
        .map(|w| {
            assert!(w > prev, "widths must ascend");
            prev = w;
            best = best.min(pack_tam(specs, w).makespan);
            (w, best)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn case_study() -> Vec<CoreTestSpec> {
        vec![
            CoreTestSpec::new("proc", 4_147_200, 1, 32),
            CoreTestSpec::new("color", 318_720, 1, 28),
            CoreTestSpec::new("dct", 63_680, 1, 8),
            CoreTestSpec::new("mem", 125_829, 1, 16),
        ]
    }

    #[test]
    fn time_model_is_inverse_in_width() {
        let s = CoreTestSpec::new("x", 1000, 1, 10);
        assert_eq!(s.time_at(1), 1000);
        assert_eq!(s.time_at(10), 100);
        assert_eq!(s.time_at(3), 334);
    }

    #[test]
    #[should_panic(expected = "outside")]
    fn width_outside_range_panics() {
        let s = CoreTestSpec::new("x", 1000, 2, 10);
        let _ = s.time_at(1);
    }

    #[test]
    fn packing_is_valid_across_widths() {
        let specs = case_study();
        for w in [4u32, 8, 16, 24, 32, 48, 64] {
            let a = pack_tam(&specs, w);
            a.assert_valid(&specs);
            assert!(
                a.makespan >= makespan_lower_bound(&specs, w),
                "width {w}: makespan below the lower bound"
            );
        }
    }

    #[test]
    fn staircase_is_monotonically_non_increasing() {
        let specs = case_study();
        let sweep = tam_width_sweep(&specs, 2..=64);
        for pair in sweep.windows(2) {
            assert!(
                pair[1].1 <= pair[0].1,
                "more wires must never hurt: {:?} -> {:?}",
                pair[0],
                pair[1]
            );
        }
        // And wires genuinely help over the sweep.
        assert!(sweep.last().unwrap().1 < sweep.first().unwrap().1 / 4);
    }

    #[test]
    fn wide_tam_saturates_at_the_longest_core() {
        // Beyond every core's max width, the bottleneck is the biggest
        // core at its own maximum.
        let specs = case_study();
        let a = pack_tam(&specs, 256);
        let floor = specs.iter().map(|s| s.time_at(s.max_width)).max().unwrap();
        assert_eq!(a.makespan, floor);
    }

    #[test]
    fn narrow_tam_is_volume_bound() {
        let specs = case_study();
        let a = pack_tam(&specs, 2);
        let bound = makespan_lower_bound(&specs, 2);
        // The shelf heuristic stays within 2x of the bound at the narrow
        // end (it is exact when everything serializes).
        assert!(a.makespan <= 2 * bound, "{} vs {}", a.makespan, bound);
    }

    #[test]
    fn utilization_is_sane() {
        let specs = case_study();
        let a = pack_tam(&specs, 32);
        let u = a.utilization();
        assert!((0.0..=1.0).contains(&u));
        assert!(u > 0.5, "shelf packing should keep the strip busy: {u}");
    }

    #[test]
    fn single_test_uses_its_max_width() {
        let specs = vec![CoreTestSpec::new("solo", 1024, 1, 8)];
        let a = pack_tam(&specs, 32);
        a.assert_valid(&specs);
        assert_eq!(a.placements[0].width, 8);
        assert_eq!(a.makespan, 128);
    }
}
