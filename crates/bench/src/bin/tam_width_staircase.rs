//! The classic test-time-versus-TAM-width staircase for the case-study
//! cores — the co-optimization curve (paper reference \[8\]'s problem) that
//! motivates exploring TAM architectures by simulation before committing
//! wires.
//!
//! Usage: `tam_width_staircase [--max-width N]` (default 64).
//!
//! Every width is an independent packing problem, so the sweep fans over
//! the validation farm's generic worker pool (`TVE_JOBS` overrides the
//! width).

use tve_lint::test_model;
use tve_sched::{makespan_lower_bound, pack_tam, wrapper_staircase, CoreTestSpec, Farm};
use tve_soc::{SocConfig, SocTestPlan};

fn case_study_specs() -> Vec<CoreTestSpec> {
    // Test data volumes of the paper's seven sequences (stimulus bits on
    // the TAM, from the static test model), folded per core under test.
    let model = test_model(&SocConfig::paper(), &SocTestPlan::paper());
    [
        ("processor", "processor (T1+T2+T3)", 32),
        ("color-conv", "color conversion (T4)", 32),
        ("dct", "dct (T5)", 8),
        ("memory", "memory (T6+T7)", 16),
    ]
    .into_iter()
    .map(|(core, name, max_width)| {
        let bits = model
            .iter()
            .filter(|m| m.cores[0] == core)
            .map(|m| m.tam_bits())
            .sum();
        CoreTestSpec::new(name, bits, 1, max_width)
    })
    .collect()
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let max_width = args
        .iter()
        .position(|a| a == "--max-width")
        .and_then(|i| args.get(i + 1))
        .and_then(|s| s.parse::<u32>().ok())
        .unwrap_or(64);

    let specs = case_study_specs();
    println!("test time vs TAM width (shelf packing, case-study volumes)\n");
    println!(
        "{:>6}  {:>16}  {:>16}  {:>12}",
        "width", "makespan (Mcy)", "lower bound", "utilization"
    );
    // One packing problem per width, evaluated concurrently; the staircase
    // filter runs afterwards over the width-ordered results.
    let min_width = specs.iter().map(|s| s.min_width).max().unwrap_or(1);
    let widths: Vec<u32> = (min_width..=max_width).collect();
    let (points, _, _) = Farm::new().run_map(&widths, |&w| {
        let a = pack_tam(&specs, w);
        a.assert_valid(&specs);
        (a.makespan, makespan_lower_bound(&specs, w), a.utilization())
    });
    let mut last = u64::MAX;
    for (&w, (_, point)) in widths.iter().zip(points) {
        let (makespan, bound, utilization) = point.expect("packing panicked");
        // Print only the staircase steps (where the curve actually drops).
        if makespan < last {
            println!(
                "{w:>6}  {:>16.1}  {:>16.1}  {:>11.0}%",
                makespan as f64 / 1e6,
                bound as f64 / 1e6,
                utilization * 100.0
            );
            last = makespan;
        }
    }
    println!(
        "\nthe curve flattens once the biggest core saturates its wrapper \
         (32 chains): beyond that, extra TAM wires buy nothing — the \
         knee a TAM architect looks for."
    );

    // The same question at wrapper-design granularity: the processor's 32
    // internal chains of 1296 cells, partitioned into w wrapper chains by
    // LPT. Unsplittable chains produce plateaus the idealized bits/width
    // model cannot show.
    println!("\nper-core wrapper design (processor, 32x1296 internal chains):");
    println!("{:>6}  {:>18}", "width", "cycles/pattern");
    let internal = vec![1296u32; 32];
    let mut last = u32::MAX;
    for (w, cycles) in wrapper_staircase(&internal, 64, 64, 48) {
        if cycles < last {
            println!("{w:>6}  {cycles:>18}");
            last = cycles;
        }
    }
    println!(
        "(only widths that divide 32 shorten the pattern — the plateaus of \
         real wrapper design)"
    );
}
