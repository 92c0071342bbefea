//! Layer microbenchmarks: fixed small inputs, run by every traced run so
//! each layer has a number on every workload. Each reports the median of
//! a few repetitions.

use std::hint::black_box;
use std::rc::Rc;
use std::time::Instant;

use tve_campaign::{diagnose_scan_fault, run_cell, FaultSpec};
use tve_obs::StoragePolicy;
use tve_sched::Farm;
use tve_sim::{Duration, Simulation};
use tve_soc::{
    paper_schedules, run_scenario, run_scenario_prepared, run_scenario_prepared_traced, Workload,
};
use tve_tlm::{AddrRange, BusConfig, BusTam, Command, InitiatorId, SinkTarget, TamIfExt};
use tve_tpg::{Compressor, Misr, Prpg, ReseedingCodec, ScanConfig, TestCube};

use crate::report::Report;
use crate::stats::median;
use crate::{serve, Size};

/// Median seconds of `reps` runs of `f`.
fn time_median(reps: usize, mut f: impl FnMut()) -> f64 {
    let times: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64()
        })
        .collect();
    median(&times)
}

/// The processor scan geometry of the small SoC.
fn small_proc_scan() -> ScanConfig {
    Workload::small().build().0.proc_scan
}

/// Runs every layer microbenchmark into `report`.
pub fn run(report: &mut Report, size: Size) {
    // Quick runs divide every loop count by `scale` and take `samples`
    // scenario-sized timings instead of eight.
    let (scale, samples) = match size {
        Size::Full => (1, 8),
        Size::Quick => (100, 1),
    };
    const REPS: usize = 3;

    // Kernel: 100 tasks x 10 000 timed waits.
    let (tasks, waits) = (100u64, 10_000 / scale);
    let t = time_median(REPS, || {
        let mut sim = Simulation::new();
        for i in 0..tasks {
            let h = sim.handle();
            sim.spawn(async move {
                for k in 0..waits {
                    h.wait(Duration::cycles(1 + (i + k) % 7)).await;
                }
            });
        }
        black_box(sim.run());
    });
    report.put("sim.timer_events_per_s", (tasks * waits) as f64 / t, REPS);

    // TLM: 4 initiators x 2000 transfers on one contended bus.
    let (initiators, txns) = (4u8, 2000 / scale);
    let t = time_median(REPS, || {
        let mut sim = Simulation::new();
        let bus = Rc::new(BusTam::new(&sim.handle(), BusConfig::default()));
        bus.bind(AddrRange::new(0, 0x1000), Rc::new(SinkTarget::new("sink")))
            .expect("one target binds");
        for i in 0..initiators {
            let bus = Rc::clone(&bus);
            sim.spawn(async move {
                for k in 0..txns {
                    let bits = 32 + (k % 8) * 64;
                    let _ = bus
                        .transfer_volume(InitiatorId(i), Command::Write, 0, bits)
                        .await;
                }
            });
        }
        black_box(sim.run());
    });
    report.put(
        "tlm.bus_transfers_per_s",
        (u64::from(initiators) * txns) as f64 / t,
        REPS,
    );

    // Pattern generation and compaction on the small SoC's scan geometry.
    let scan = small_proc_scan();
    let patterns = 20_000 / scale;
    let t = time_median(REPS, || {
        let mut prpg = Prpg::new(32, 1, scan).expect("degree-32 PRPG");
        for _ in 0..patterns {
            black_box(prpg.next_pattern());
        }
    });
    report.put("tpg.prpg_patterns_per_s", patterns as f64 / t, REPS);
    let words = 1_000_000 / scale;
    let t = time_median(REPS, || {
        let mut misr = Misr::new(64, 32).expect("degree-64 MISR");
        for i in 0..words {
            misr.absorb(black_box(i.wrapping_mul(0x9E37_79B9)));
        }
        black_box(misr.signature());
    });
    report.put("tpg.misr_words_per_s", words as f64 / t, REPS);
    let codec = ReseedingCodec::new(scan, 64).expect("degree-64 reseeding codec");
    let streams: Vec<_> = (0..64)
        .filter_map(|s| codec.compress(&TestCube::random(scan, 24, s)).ok())
        .collect();
    let rounds = 200 / scale;
    let t = time_median(REPS, || {
        for _ in 0..rounds {
            for s in &streams {
                black_box(codec.decompress(s).expect("own stream decompresses"));
            }
        }
    });
    report.put(
        "tpg.reseed_decompress_per_s",
        (rounds * streams.len() as u64) as f64 / t,
        REPS,
    );

    // Farm dispatch: per-item cost of near-empty items on two workers.
    let items: Vec<u64> = (0..4000 / scale).collect();
    let farm = Farm::with_workers(2);
    let t = time_median(REPS, || {
        black_box(farm.run_map(&items, |&x| black_box(x).wrapping_mul(3)));
    });
    report.put("sched.dispatch_us", t * 1e6 / items.len() as f64, REPS);

    // Span recording: one small scenario untraced and traced.
    let (config, plan) = Workload::small().build();
    let schedule = &paper_schedules()[0];
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    for _ in 0..samples {
        plain.push(time_median(1, || {
            black_box(run_scenario_prepared(&config, &plan, schedule, |_| {}).is_ok());
        }));
        traced.push(time_median(1, || {
            black_box(
                run_scenario_prepared_traced(
                    &config,
                    &plan,
                    schedule,
                    StoragePolicy::Unbounded,
                    |_| {},
                )
                .is_ok(),
            );
        }));
    }
    report.put(
        "obs.recorder_share_pct",
        (1.0 - median(&plain) / median(&traced)) * 100.0,
        plain.len(),
    );

    // Campaign cells and diagnosis on the small SoC.
    let campaign = crate::campaign::campaign_config(0xCA3A_1601, Size::Quick);
    let golden = run_scenario(&campaign.soc, &campaign.plan, schedule)
        .expect("the small golden run is well-formed");
    let faults = &campaign.population[..campaign.population.len().min(samples)];
    let cells: Vec<f64> = faults
        .iter()
        .map(|f| {
            time_median(1, || {
                black_box(run_cell(
                    &campaign.soc,
                    &campaign.plan,
                    schedule,
                    f,
                    &golden,
                ));
            })
        })
        .collect();
    report.put("campaign.cell_ms", median(&cells) * 1e3, cells.len());
    let scan_faults: Vec<_> = campaign
        .population
        .iter()
        .filter_map(|f| match f {
            FaultSpec::ScanCell { core, cell } => Some((*core, *cell)),
            _ => None,
        })
        .take(samples.div_ceil(2))
        .collect();
    let diag: Vec<f64> = scan_faults
        .iter()
        .map(|&(core, cell)| {
            time_median(1, || {
                drop(black_box(diagnose_scan_fault(&campaign, core, cell)))
            })
        })
        .collect();
    report.put("campaign.diagnosis_ms", median(&diag) * 1e3, diag.len());

    // Serving overhead on the cache-hit path: round trip minus the
    // daemon's own job time.
    match serve_overhead(200 / scale as usize) {
        Ok(us) => report.put("serve.overhead_us_p50", median(&us), us.len()),
        Err(e) => report.gate(false, || format!("serve microbenchmark: {e}")),
    }
}

/// Round-trip overhead (µs) of `hits` cached schedule jobs.
fn serve_overhead(hits: usize) -> Result<Vec<f64>, String> {
    std::fs::create_dir_all(crate::OUT_DIR).map_err(|e| e.to_string())?;
    let (daemon, mut clients) = serve::start_daemon()?;
    let job = serve::Request::Schedule {
        variant: 0,
        index: 1,
    }
    .job();
    let client = &mut clients[0];
    client.submit(&job)?;
    let mut out = Vec::with_capacity(hits);
    for _ in 0..hits {
        let t = Instant::now();
        let v = client.submit(&job)?;
        let rtt_us = t.elapsed().as_secs_f64() * 1e6;
        let wall_us = v
            .get("wall_us")
            .and_then(tve_obs::JsonValue::as_f64)
            .ok_or("response lacks wall_us")?;
        out.push(rtt_us - wall_us);
    }
    serve::stop_daemon(daemon, clients)?;
    Ok(out)
}
