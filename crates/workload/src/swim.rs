//! SWIM-format trace ingestion.
//!
//! The SWIM workload repository (Chen et al., "The Case for Evaluating
//! MapReduce Performance Using Workload Suites") publishes day-long
//! Facebook traces as tab-separated lines:
//!
//! ```text
//! job_id <TAB> submit_secs <TAB> gap_secs <TAB> input_bytes <TAB> shuffle_bytes <TAB> output_bytes
//! ```
//!
//! SWIM describes jobs by *bytes*, not task counts, so replay maps the
//! byte columns back onto the simulator's task model: map count is the
//! input size in 64 MB blocks ([`BLOCK_SIZE`]),
//! and the reduce count comes from the Table I bin whose observed
//! map-count range contains that job ([`bin_for_maps`]) — the same
//! non-decreasing Table II pattern the synthetic generator uses. A
//! schedule generated from the bins therefore round-trips exactly;
//! arbitrary reduce counts (e.g. hand-edited CSV imports) are
//! re-derived from the bin taxonomy.

use crate::facebook::bin_for_maps;
use crate::jobmodel;
use crate::schedule::{JobSpec, SubmissionSchedule};
use crate::trace::TraceError;
use hog_sim_core::units::BLOCK_SIZE;
use hog_sim_core::{SimDuration, SimTime};

/// Render a schedule as a SWIM trace (no header; SWIM files have none).
/// Byte columns follow the cost model ([`crate::jobmodel`]): `maps ·`
/// [`BLOCK_SIZE`] input, the shuffle ratio, and the final-output ratio.
pub fn to_swim(schedule: &SubmissionSchedule) -> String {
    let mut out = String::new();
    let mut prev = SimTime::ZERO;
    for j in schedule.jobs() {
        let gap = j.submit_at.saturating_since(prev);
        prev = j.submit_at;
        out.push_str(&format!(
            "job{}\t{:.3}\t{:.3}\t{}\t{}\t{}\n",
            j.id,
            j.submit_at.as_secs_f64(),
            gap.as_secs_f64(),
            jobmodel::input_bytes(j.maps),
            jobmodel::shuffle_bytes(j.maps),
            jobmodel::output_bytes(j.maps),
        ));
    }
    out
}

/// Parse a SWIM trace into a replayable schedule. Rows must be
/// time-ordered; blank lines and `#` comments are skipped. Job ids are
/// assigned in row order (the trace's own ids are free-form strings and
/// are not preserved).
pub fn from_swim(text: &str) -> Result<SubmissionSchedule, TraceError> {
    let mut jobs = Vec::new();
    let mut last = SimTime::ZERO;
    for (i, raw) in text.lines().enumerate() {
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let err = |message: String| TraceError {
            line: i + 1,
            message,
        };
        let cols: Vec<&str> = line.split('\t').map(str::trim).collect();
        if cols.len() != 6 {
            return Err(err(format!(
                "expected 6 tab-separated columns, got {}",
                cols.len()
            )));
        }
        let submit_secs: f64 = cols[1]
            .parse()
            .map_err(|e| err(format!("bad submit_secs: {e}")))?;
        if !submit_secs.is_finite() || submit_secs < 0.0 {
            return Err(err("submit_secs must be finite and non-negative".into()));
        }
        let input_bytes: u64 = cols[3]
            .parse()
            .map_err(|e| err(format!("bad input_bytes: {e}")))?;
        // Columns 4–5 (shuffle/output bytes) are validated but not
        // needed: the cost model re-derives them from the map count.
        for (name, col) in [("shuffle_bytes", cols[4]), ("output_bytes", cols[5])] {
            col.parse::<u64>()
                .map_err(|e| err(format!("bad {name}: {e}")))?;
        }
        let maps = input_bytes.div_ceil(BLOCK_SIZE).max(1) as u32;
        let bin = bin_for_maps(maps);
        let submit_at = SimTime::ZERO + SimDuration::from_secs_f64(submit_secs);
        if submit_at < last {
            return Err(err("rows must be time-ordered".into()));
        }
        last = submit_at;
        jobs.push(JobSpec {
            id: jobs.len() as u32,
            submit_at,
            bin: bin.number,
            maps,
            reduces: bin.reduces,
        });
    }
    Ok(SubmissionSchedule::from_jobs(jobs))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_preserves_bin_generated_schedules() {
        for original in [
            SubmissionSchedule::facebook_truncated(9),
            SubmissionSchedule::facebook_day(3),
        ] {
            let swim = to_swim(&original);
            let parsed = from_swim(&swim).unwrap();
            assert_eq!(parsed.len(), original.len());
            for (a, b) in original.jobs().iter().zip(parsed.jobs()) {
                assert_eq!(a.bin, b.bin);
                assert_eq!(a.maps, b.maps);
                assert_eq!(a.reduces, b.reduces);
                assert_eq!(a.submit_at.as_millis(), b.submit_at.as_millis());
            }
        }
    }

    #[test]
    fn maps_come_from_input_bytes() {
        // 10 blocks exactly, and a ragged 10.5-block job that rounds up.
        let ten = 10 * BLOCK_SIZE;
        let text = format!(
            "a\t0.0\t0.0\t{ten}\t0\t0\nb\t5.0\t5.0\t{}\t0\t0\n",
            ten + BLOCK_SIZE / 2
        );
        let s = from_swim(&text).unwrap();
        assert_eq!(s.jobs()[0].maps, 10);
        assert_eq!(s.jobs()[0].bin, 3); // 3..=20 observed range
        assert_eq!(s.jobs()[0].reduces, 5);
        assert_eq!(s.jobs()[1].maps, 11);
    }

    #[test]
    fn rejects_malformed_rows() {
        assert!(from_swim("a\t0.0\t0.0\t1\t1\n").is_err(), "5 columns");
        assert!(from_swim("a\tx\t0.0\t1\t1\t1\n").is_err(), "bad float");
        assert!(from_swim("a\t0.0\t0.0\tz\t1\t1\n").is_err(), "bad bytes");
        let unordered = "a\t5.0\t0.0\t1\t1\t1\nb\t1.0\t0.0\t1\t1\t1\n";
        let e = from_swim(unordered).unwrap_err();
        assert_eq!(e.line, 2);
        assert!(e.message.contains("time-ordered"));
    }

    #[test]
    fn comments_and_tiny_jobs_handled() {
        let s = from_swim("# header comment\n\na\t0.0\t0.0\t1\t0\t0\n").unwrap();
        assert_eq!(s.len(), 1);
        assert_eq!(s.jobs()[0].maps, 1, "sub-block inputs clamp to one map");
        assert_eq!(s.jobs()[0].bin, 1);
    }
}
