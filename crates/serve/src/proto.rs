//! The wire protocol: length-prefixed JSON frames over a Unix-domain
//! socket.
//!
//! Every message — request or response — is one frame: a 4-byte
//! little-endian payload length followed by exactly that many bytes of
//! UTF-8 JSON. JSON is read with `tve-obs`'s serde-free
//! [`parse_json`](tve_obs::parse_json) and written by hand with
//! [`append_json_string`](tve_obs::append_json_string) — no new
//! dependencies anywhere on the wire.
//!
//! Requests are objects with a `cmd` member (`ping`, `submit`,
//! `stats`, `invalidate`, `drain`, `shutdown`); responses are objects
//! with an `ok` boolean (plus `error` text when false). A `submit` is
//! answered on its own connection once the job completes.
//! The full shape of each message is specified in `DESIGN.md`.

use std::io::{self, Read, Write};

use tve_campaign::{generate, CampaignConfig, PopulationSpec, ShardSpec};
use tve_core::Schedule;
use tve_obs::JsonValue;
use tve_soc::{
    paper_schedules, PlanOverrides, Workload, WorkloadPreset, MEM_BASE, PLAN_OVERRIDE_KEYS,
};

/// Upper bound on one frame's payload (a full campaign matrix embeds
/// its CSV and JSON artifacts, so frames can be sizable — but never
/// this sizable unless something is broken).
pub(crate) const MAX_FRAME: usize = 64 << 20;

/// Writes `text` as one frame.
pub fn write_frame(w: &mut impl Write, text: &str) -> io::Result<()> {
    let len = u32::try_from(text.len())
        .map_err(|_| io::Error::new(io::ErrorKind::InvalidInput, "frame too large"))?;
    w.write_all(&len.to_le_bytes())?;
    w.write_all(text.as_bytes())?;
    w.flush()
}

/// Reads one frame; `Ok(None)` on a clean end-of-stream before the
/// length prefix (the peer hung up between messages).
pub fn read_frame(r: &mut impl Read) -> io::Result<Option<String>> {
    let mut len_bytes = [0u8; 4];
    match r.read_exact(&mut len_bytes) {
        Ok(()) => {}
        Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => return Ok(None),
        Err(e) => return Err(e),
    }
    let len = u32::from_le_bytes(len_bytes) as usize;
    if len > MAX_FRAME {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame of {len} bytes exceeds the {MAX_FRAME}-byte cap"),
        ));
    }
    let mut payload = vec![0u8; len];
    r.read_exact(&mut payload)?;
    String::from_utf8(payload)
        .map(Some)
        .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "frame is not UTF-8"))
}

/// One job a client can submit.
#[derive(Debug, Clone, PartialEq)]
pub struct JobSpec {
    /// The workload the job runs against.
    pub workload: Workload,
    /// What to do with it.
    pub kind: JobKind,
    /// Cache-verification fraction for this job (overrides the
    /// daemon-wide `--verify-cache` setting when present): each cache
    /// hit is re-executed with this probability and the results must
    /// match bit for bit.
    pub verify: Option<f64>,
    /// Wall-clock deadline for the job in milliseconds. An overrunning
    /// job is cancelled at the next kernel scheduling boundary and
    /// reported as a typed `deadline` error — never a partial result.
    pub deadline_ms: Option<u64>,
}

/// The job kinds the daemon serves.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JobKind {
    /// Run one Table-I schedule (1-based index) fault-free.
    Schedule {
        /// 1-based index into the paper schedules.
        index: usize,
    },
    /// Run a fault campaign over the given schedules.
    Campaign {
        /// 1-based schedule indices.
        schedules: Vec<usize>,
        /// Population seed.
        seed: u64,
        /// Sampled scan cells per core and memory faults.
        faults: usize,
        /// Whether to run the diagnosis cross-check.
        diagnosis: bool,
        /// Run only this shard of the matrix and return a mergeable
        /// shard report ([`tve_campaign::merge_shards`]) instead of the
        /// full artifacts. `None` = the whole matrix.
        shard: Option<ShardSpec>,
    },
    /// Statically lint the given schedules (and optionally one ATE
    /// program) against the workload's plan facts.
    Lint {
        /// 1-based schedule indices.
        schedules: Vec<usize>,
        /// Optional `(name, text)` of an ATE program to lint too.
        program: Option<(String, String)>,
    },
    /// Compute certified static bound envelopes for the given
    /// schedules. Answered without any simulation (no farm dispatch)
    /// and cached like lint.
    Bounds {
        /// 1-based schedule indices.
        schedules: Vec<usize>,
    },
}

/// Appends `workload` as a JSON object.
pub(crate) fn encode_workload(workload: &Workload, out: &mut String) {
    use std::fmt::Write;
    let _ = write!(
        out,
        "{{\"preset\":\"{}\",\"scale\":{}",
        workload.preset.name(),
        workload.scale
    );
    if let Some(words) = workload.mem_words {
        let _ = write!(out, ",\"mem_words\":{words}");
    }
    if !workload.overrides.is_empty() {
        out.push_str(",\"overrides\":");
        encode_overrides(&workload.overrides, out);
    }
    out.push('}');
}

/// Appends `overrides` as a JSON object.
pub(crate) fn encode_overrides(overrides: &PlanOverrides, out: &mut String) {
    use std::fmt::Write;
    out.push('{');
    for (i, (key, value)) in overrides.entries().into_iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "\"{key}\":{value}");
    }
    out.push('}');
}

/// Decodes a workload object.
///
/// A memory size the SoC cannot be built with is refused here, before
/// anything is allocated: the memory needs at least one word, and its
/// window `MEM_BASE .. MEM_BASE + mem_words` must fit the 32-bit TAM
/// address space.
pub(crate) fn decode_workload(v: &JsonValue) -> Result<Workload, String> {
    let preset_name = v.str_field("preset")?;
    let preset = WorkloadPreset::parse(preset_name)
        .ok_or_else(|| format!("unknown preset {preset_name:?}"))?;
    let mut workload = Workload::new(preset);
    if let Some(scale) = v.opt_typed("scale", JsonValue::u64_field::<u64>)? {
        workload.scale = scale.max(1);
    }
    if let Some(words) = v.opt_typed("mem_words", JsonValue::u64_field::<u32>)? {
        if words == 0 || MEM_BASE.checked_add(words - 1).is_none() {
            return Err(format!(
                "\"mem_words\" must be 1..={}",
                u64::from(u32::MAX - MEM_BASE) + 1
            ));
        }
        workload.mem_words = Some(words);
    }
    if let Some(overrides) = v.opt_field("overrides") {
        workload.overrides = decode_overrides(overrides)?;
    }
    Ok(workload)
}

/// Decodes a plan-overrides object (unknown keys are an error — a
/// typo'd key would otherwise silently validate the wrong plan).
pub(crate) fn decode_overrides(v: &JsonValue) -> Result<PlanOverrides, String> {
    let JsonValue::Obj(members) = v else {
        return Err("\"overrides\" wants an object".into());
    };
    let mut overrides = PlanOverrides::default();
    for (key, value) in members {
        let value = value
            .as_u64()
            .ok_or_else(|| format!("override {key:?} wants a non-negative integer"))?;
        if !overrides.set(key, value) {
            return Err(format!(
                "unknown override {key:?} (known: {})",
                PLAN_OVERRIDE_KEYS.join(", ")
            ));
        }
    }
    Ok(overrides)
}

fn decode_indices(v: Option<&JsonValue>, what: &str) -> Result<Vec<usize>, String> {
    let Some(v) = v else {
        return Ok((1..=4).collect());
    };
    let items = v
        .as_arr()
        .ok_or_else(|| format!("{what} wants an array of 1-based schedule indices"))?;
    let mut out = Vec::with_capacity(items.len());
    for item in items {
        let i = item
            .as_u64()
            .filter(|&i| (1..=4).contains(&i))
            .ok_or_else(|| format!("{what} indices must be 1..=4"))? as usize;
        // A repeat would only make the job (and its memoized decode)
        // bigger: every decoded schedule is a clone of its own.
        if out.contains(&i) {
            return Err(format!("{what} repeats schedule {i}"));
        }
        out.push(i);
    }
    if out.is_empty() {
        return Err(format!("{what} must not be empty"));
    }
    Ok(out)
}

impl JobSpec {
    /// Renders the job as its wire JSON object.
    pub fn to_json(&self) -> String {
        use std::fmt::Write;
        let indices = |list: &[usize]| {
            let list: Vec<String> = list.iter().map(ToString::to_string).collect();
            list.join(",")
        };
        let mut out = String::from("{\"kind\":");
        match &self.kind {
            JobKind::Schedule { index } => {
                let _ = write!(out, "\"schedule\",\"schedule\":{index}");
            }
            JobKind::Campaign {
                schedules,
                seed,
                faults,
                diagnosis,
                shard,
            } => {
                let _ = write!(
                    out,
                    "\"campaign\",\"schedules\":[{}],\"seed\":{seed},\"faults\":{faults},\"diagnosis\":{diagnosis}",
                    indices(schedules)
                );
                if let Some(shard) = shard {
                    let _ = write!(out, ",\"shard\":\"{shard}\"");
                }
            }
            JobKind::Lint { schedules, program } => {
                let _ = write!(out, "\"lint\",\"schedules\":[{}]", indices(schedules));
                if let Some((name, text)) = program {
                    out.push_str(",\"program_name\":");
                    tve_obs::append_json_string(&mut out, name);
                    out.push_str(",\"program\":");
                    tve_obs::append_json_string(&mut out, text);
                }
            }
            JobKind::Bounds { schedules } => {
                let _ = write!(out, "\"bounds\",\"schedules\":[{}]", indices(schedules));
            }
        }
        out.push_str(",\"workload\":");
        encode_workload(&self.workload, &mut out);
        if let Some(fraction) = self.verify {
            let _ = write!(out, ",\"verify\":{fraction}");
        }
        if let Some(deadline) = self.deadline_ms {
            let _ = write!(out, ",\"deadline_ms\":{deadline}");
        }
        out.push('}');
        out
    }

    /// Decodes a wire job object.
    pub fn from_json(v: &JsonValue) -> Result<Self, String> {
        let workload = decode_workload(v.field("workload")?)?;
        let verify = v
            .opt_field("verify")
            .map(|f| {
                f.as_f64()
                    .filter(|f| (0.0..=1.0).contains(f))
                    .ok_or("\"verify\" wants a fraction in [0, 1]")
            })
            .transpose()?;
        let deadline_ms = v
            .opt_field("deadline_ms")
            .map(|d| {
                d.as_u64()
                    .filter(|&d| d > 0)
                    .ok_or("\"deadline_ms\" wants a positive integer")
            })
            .transpose()?;
        let kind = match v.str_field("kind")? {
            "schedule" => JobKind::Schedule {
                index: v
                    .u64_field::<usize>("schedule")
                    .ok()
                    .filter(|i| (1..=4).contains(i))
                    .ok_or("schedule jobs want \"schedule\": 1..=4")?,
            },
            "campaign" => JobKind::Campaign {
                schedules: decode_indices(v.get("schedules"), "\"schedules\"")?,
                seed: v
                    .opt_typed("seed", JsonValue::u64_field::<u64>)?
                    .unwrap_or(0),
                faults: v
                    .opt_typed("faults", JsonValue::u64_field::<usize>)?
                    .unwrap_or(4)
                    .min(64),
                diagnosis: v
                    .opt_typed("diagnosis", JsonValue::bool_field)?
                    .unwrap_or(true),
                shard: v
                    .opt_typed("shard", JsonValue::str_field)?
                    .map(ShardSpec::parse)
                    .transpose()?,
            },
            "lint" => {
                let program = match (
                    v.opt_typed("program_name", JsonValue::str_field)?,
                    v.opt_typed("program", JsonValue::str_field)?,
                ) {
                    (Some(name), Some(text)) => Some((name.to_string(), text.to_string())),
                    (None, None) => None,
                    _ => return Err("lint program wants both name and text".into()),
                };
                JobKind::Lint {
                    schedules: decode_indices(v.get("schedules"), "\"schedules\"")?,
                    program,
                }
            }
            "bounds" => JobKind::Bounds {
                schedules: decode_indices(v.get("schedules"), "\"schedules\"")?,
            },
            other => return Err(format!("unknown job kind {other:?}")),
        };
        Ok(JobSpec {
            workload,
            kind,
            verify,
            deadline_ms,
        })
    }

    /// Admission priority: 0 (interactive static analysis) runs ahead
    /// of 1 (single schedule runs) ahead of 2 (campaign shards). Lower
    /// is more urgent; the admission queue orders by `(priority, seq)`.
    pub(crate) fn priority(&self) -> u8 {
        match &self.kind {
            JobKind::Lint { .. } | JobKind::Bounds { .. } => 0,
            JobKind::Schedule { .. } => 1,
            JobKind::Campaign { .. } => 2,
        }
    }

    /// The paper schedules the job selects, in request order.
    pub(crate) fn schedules(&self) -> Vec<Schedule> {
        let indices = match &self.kind {
            JobKind::Schedule { index } => std::slice::from_ref(index),
            JobKind::Campaign { schedules, .. }
            | JobKind::Lint { schedules, .. }
            | JobKind::Bounds { schedules } => schedules,
        };
        let all = paper_schedules();
        indices.iter().map(|&i| all[i - 1].clone()).collect()
    }

    /// The exact [`CampaignConfig`] a campaign job runs against, or
    /// `None` for other job kinds.
    ///
    /// The daemon builds its shard reports from it, and a client that
    /// merges them rebuilds it to compute the matching campaign
    /// fingerprint — equal job fields therefore mean an equal matrix, by
    /// construction, on both ends of the socket.
    pub fn campaign_config(&self) -> Option<CampaignConfig> {
        let JobKind::Campaign {
            seed,
            faults,
            diagnosis,
            ..
        } = &self.kind
        else {
            return None;
        };
        let (config, plan) = self.workload.build();
        let spec = PopulationSpec {
            seed: *seed,
            scan_cells_per_core: *faults,
            memory_faults: *faults,
            ..PopulationSpec::default()
        };
        let population = generate(&spec, &config);
        let mut campaign = CampaignConfig::new(config, plan, self.schedules(), population);
        campaign.diagnosis = *diagnosis;
        Some(campaign)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tve_obs::{check_json, parse_json};

    #[test]
    fn frames_round_trip() {
        let mut buf = Vec::new();
        write_frame(&mut buf, "{\"cmd\":\"ping\"}").unwrap();
        write_frame(&mut buf, "").unwrap();
        let mut r = &buf[..];
        assert_eq!(
            read_frame(&mut r).unwrap().as_deref(),
            Some("{\"cmd\":\"ping\"}")
        );
        assert_eq!(read_frame(&mut r).unwrap().as_deref(), Some(""));
        assert_eq!(read_frame(&mut r).unwrap(), None, "clean EOF");
    }

    #[test]
    fn truncated_frame_is_an_error() {
        let mut buf = Vec::new();
        write_frame(&mut buf, "hello").unwrap();
        buf.truncate(buf.len() - 2);
        let mut r = &buf[..];
        assert!(read_frame(&mut r).is_err());
        // An oversized length prefix is rejected before allocation.
        let huge = (MAX_FRAME as u32 + 1).to_le_bytes();
        assert!(read_frame(&mut &huge[..]).is_err());
    }

    #[test]
    fn job_specs_round_trip() {
        let mut overrides = PlanOverrides::default();
        overrides.set("det_proc_patterns", 42);
        let jobs = [
            JobSpec {
                workload: Workload::small().with_mem_words(64),
                kind: JobKind::Schedule { index: 2 },
                verify: Some(1.0),
                deadline_ms: Some(2500),
            },
            JobSpec {
                workload: Workload::small().with_overrides(overrides),
                kind: JobKind::Campaign {
                    schedules: vec![1, 3],
                    seed: 20090417,
                    faults: 2,
                    diagnosis: false,
                    shard: None,
                },
                verify: None,
                deadline_ms: None,
            },
            JobSpec {
                workload: Workload::small(),
                kind: JobKind::Campaign {
                    schedules: vec![1, 2, 3, 4],
                    seed: 7,
                    faults: 1,
                    diagnosis: true,
                    shard: Some(ShardSpec::new(1, 3).unwrap()),
                },
                verify: None,
                deadline_ms: None,
            },
            JobSpec {
                workload: Workload::paper().with_scale(100),
                kind: JobKind::Lint {
                    schedules: vec![1, 2, 3, 4],
                    program: Some(("prog.tvp".into(), "test \"t1\"\n".into())),
                },
                verify: None,
                deadline_ms: None,
            },
            JobSpec {
                workload: Workload::paper().with_scale(200),
                kind: JobKind::Bounds {
                    schedules: vec![2, 4],
                },
                verify: Some(1.0),
                deadline_ms: None,
            },
        ];
        for job in jobs {
            let text = job.to_json();
            check_json(&text).unwrap_or_else(|e| panic!("bad JSON {text:?}: {e}"));
            let back = JobSpec::from_json(&parse_json(&text).unwrap()).unwrap();
            assert_eq!(back, job);
        }
    }

    #[test]
    fn bad_jobs_are_rejected_with_reasons() {
        for (doc, needle) in [
            (
                r#"{"kind":"schedule","schedule":9,"workload":{"preset":"small"}}"#,
                "1..=4",
            ),
            (
                r#"{"kind":"schedule","schedule":1,"workload":{"preset":"huge"}}"#,
                "preset",
            ),
            (r#"{"kind":"nope","workload":{"preset":"small"}}"#, "kind"),
            (
                r#"{"kind":"schedule","schedule":1,"workload":{"preset":"small","overrides":{"oops":1}}}"#,
                "unknown override",
            ),
            (
                r#"{"kind":"schedule","schedule":1,"workload":{"preset":"small"},"verify":7}"#,
                "[0, 1]",
            ),
            (
                r#"{"kind":"campaign","shard":"5/3","workload":{"preset":"small"}}"#,
                "out of range",
            ),
            (
                r#"{"kind":"campaign","shard":"0/3","workload":{"preset":"small"}}"#,
                "1-based",
            ),
            (
                r#"{"kind":"bounds","schedules":[0],"workload":{"preset":"small"}}"#,
                "1..=4",
            ),
            (
                r#"{"kind":"bounds","schedules":[],"workload":{"preset":"small"}}"#,
                "must not be empty",
            ),
            (
                r#"{"kind":"lint","schedules":[2,4,2],"workload":{"preset":"small"}}"#,
                "repeats schedule 2",
            ),
            (
                r#"{"kind":"schedule","schedule":1,"workload":{"preset":"small"},"deadline_ms":0}"#,
                "positive",
            ),
        ] {
            let err = JobSpec::from_json(&parse_json(doc).unwrap()).unwrap_err();
            assert!(err.contains(needle), "{doc}: {err}");
        }
    }

    /// The exact client-visible texts of the job decoder's errors, one
    /// case per decoding path.
    #[test]
    fn job_decoder_error_texts_are_pinned() {
        let small = r#""workload":{"preset":"small"}"#;
        let sized = |words: &str| {
            format!(
                r#"{{"kind":"schedule","schedule":1,"workload":{{"preset":"small","mem_words":{words}}}}}"#
            )
        };
        for (doc, text) in [
            (
                r#"{"kind":"schedule","schedule":1}"#.to_string(),
                "missing field 'workload'",
            ),
            (
                r#"{"kind":"schedule","workload":{}}"#.into(),
                "missing field 'preset'",
            ),
            (
                r#"{"kind":"schedule","workload":{"preset":5}}"#.into(),
                "field 'preset' is not a string",
            ),
            (
                r#"{"kind":"schedule","workload":{"preset":"small","scale":"x"}}"#.into(),
                "field 'scale' is not a u64",
            ),
            (sized("-1"), "field 'mem_words' is not a u32"),
            (sized("5000000000"), "field 'mem_words' is not a u32"),
            (sized("0"), "\"mem_words\" must be 1..=4026531840"),
            (sized("4026531841"), "\"mem_words\" must be 1..=4026531840"),
            (format!("{{{small}}}"), "missing field 'kind'"),
            (
                format!(r#"{{"kind":3,{small}}}"#),
                "field 'kind' is not a string",
            ),
            (
                format!(r#"{{"kind":"schedule",{small}}}"#),
                "schedule jobs want \"schedule\": 1..=4",
            ),
            (
                format!(r#"{{"kind":"schedule","schedule":"1",{small}}}"#),
                "schedule jobs want \"schedule\": 1..=4",
            ),
            (
                format!(r#"{{"kind":"campaign","seed":"1",{small}}}"#),
                "field 'seed' is not a u64",
            ),
            (
                format!(r#"{{"kind":"campaign","faults":-2,{small}}}"#),
                "field 'faults' is not a usize",
            ),
            (
                format!(r#"{{"kind":"campaign","diagnosis":1,{small}}}"#),
                "field 'diagnosis' is not a boolean",
            ),
            (
                format!(r#"{{"kind":"campaign","shard":5,{small}}}"#),
                "field 'shard' is not a string",
            ),
            (
                format!(r#"{{"kind":"lint","program_name":"p",{small}}}"#),
                "lint program wants both name and text",
            ),
            (
                format!(r#"{{"kind":"lint","program_name":"p","program":7,{small}}}"#),
                "field 'program' is not a string",
            ),
        ] {
            let err = JobSpec::from_json(&parse_json(&doc).unwrap()).unwrap_err();
            assert_eq!(err, text, "{doc}");
        }
    }

    /// The decoder admits exactly the memory sizes the SoC can be built
    /// with: at least one word, and a window ending at or below
    /// `u32::MAX`. Decoding the largest one allocates nothing.
    #[test]
    fn mem_words_bounds_are_the_buildable_sizes() {
        let words = |w: u32| {
            let doc = format!(r#"{{"preset":"small","mem_words":{w}}}"#);
            decode_workload(&parse_json(&doc).unwrap()).map(|wl| wl.mem_words)
        };
        assert!(words(0).is_err());
        assert_eq!(words(1), Ok(Some(1)));
        let largest = u32::MAX - MEM_BASE + 1;
        assert_eq!(words(largest), Ok(Some(largest)));
        assert!(words(largest + 1).is_err());
    }
}
