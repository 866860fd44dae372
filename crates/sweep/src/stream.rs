//! Bounded-memory CSV emission and the per-config aggregates the campaign
//! summaries read.
//!
//! The [`StreamingCsvWriter`] receives completed [`PointRecord`]s from the
//! executor's worker threads in *completion* order and reorders them into
//! *spec* order through a small buffer (bounded by the workers' completion
//! skew, roughly the thread count — never the campaign size). That
//! reordering is what makes streaming output deterministic: the CSV it
//! emits is byte-identical to [`report::to_csv`] over retained results.
//! [`RunningAggregates`] folds retained results in spec order.

use std::collections::BTreeMap;
use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::sync::Mutex;

use ltrf_core::Organization;

use crate::executor::{PointMeans, PointMeansAcc, PointRecord, RecordSink, SweepResults};
use crate::report;

// ---------------------------------------------------------------------------
// Streaming CSV
// ---------------------------------------------------------------------------

struct CsvState {
    writer: BufWriter<File>,
    schema: report::CsvSchema,
    /// The next spec index to write (rows before it are already on disk).
    next: usize,
    /// Rendered rows that completed ahead of `next`, keyed by spec index.
    pending: BTreeMap<usize, String>,
    /// The first write error, surfaced by [`StreamingCsvWriter::finish`]
    /// (the sink callback has no error channel).
    deferred: Option<io::Error>,
}

/// A [`RecordSink`] that writes each point's CSV row to disk as the point
/// completes, in spec order, without ever materializing the full row set.
///
/// Rows are rendered by the same [`report::CsvSchema`] the batch
/// [`to_csv`](crate::report::to_csv) uses, so the streamed file is
/// byte-identical to the batch one by construction.
pub struct StreamingCsvWriter {
    state: Mutex<CsvState>,
}

impl StreamingCsvWriter {
    /// Creates (truncating) the CSV file at `path` and writes the header
    /// row.
    ///
    /// # Errors
    ///
    /// Returns the underlying I/O error.
    pub fn create(path: impl AsRef<Path>) -> io::Result<Self> {
        StreamingCsvWriter::create_with_schema(path, report::CsvSchema::Standard)
    }

    /// [`Self::create`] with an explicit column schema (the `sweep
    /// interconnect` campaign appends network columns; everything else
    /// writes the frozen standard set).
    ///
    /// # Errors
    ///
    /// Returns the underlying I/O error.
    pub fn create_with_schema(
        path: impl AsRef<Path>,
        schema: report::CsvSchema,
    ) -> io::Result<Self> {
        let mut writer = BufWriter::new(File::create(path)?);
        writer.write_all(schema.header().as_bytes())?;
        writer.write_all(b"\n")?;
        Ok(StreamingCsvWriter {
            state: Mutex::new(CsvState {
                writer,
                schema,
                next: 0,
                pending: BTreeMap::new(),
                deferred: None,
            }),
        })
    }

    /// Flushes the file and surfaces any write error deferred from the
    /// streaming callbacks.
    ///
    /// # Errors
    ///
    /// Returns the first deferred write error, or the flush error.
    pub fn finish(self) -> io::Result<()> {
        let mut state = self.state.into_inner().expect("csv writer poisoned");
        if let Some(e) = state.deferred.take() {
            return Err(e);
        }
        state.writer.flush()
    }
}

impl RecordSink for StreamingCsvWriter {
    fn on_record(&self, index: usize, record: &PointRecord) {
        let mut state = self.state.lock().expect("csv writer poisoned");
        let row = state.schema.row(record);
        state.pending.insert(index, row);
        // Drain every row that is now consecutive from `next`.
        while let Some(row) = {
            let next = state.next;
            state.pending.remove(&next)
        } {
            if state.deferred.is_none() {
                let written = state
                    .writer
                    .write_all(row.as_bytes())
                    .and_then(|()| state.writer.write_all(b"\n"));
                if let Err(e) = written {
                    state.deferred = Some(e);
                }
            }
            state.next += 1;
        }
    }
}

// ---------------------------------------------------------------------------
// Campaign aggregates
// ---------------------------------------------------------------------------

/// The LTRF generated-population tail statistics `sweep gen-campaign`
/// summarizes, folded in spec order: `worst` keeps the *earliest* member
/// among equal minima, `best` the *latest* among equal maxima.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub(crate) struct MemberTail {
    /// Number of LTRF members with a normalized IPC.
    pub count: usize,
    /// Members LTRF sped up (normalized IPC above 1.0).
    pub wins: usize,
    /// `(member index, normalized IPC)` of the best member.
    pub best: Option<(u32, f64)>,
    /// `(member index, normalized IPC)` of the worst member.
    pub worst: Option<(u32, f64)>,
}

impl MemberTail {
    fn push(&mut self, index: u32, norm: f64) {
        self.count += 1;
        if norm > 1.0 {
            self.wins += 1;
        }
        match self.best {
            Some((_, best)) if norm.total_cmp(&best).is_lt() => {}
            _ => self.best = Some((index, norm)),
        }
        match self.worst {
            Some((_, worst)) if norm.total_cmp(&worst).is_lt() => self.worst = Some((index, norm)),
            Some(_) => {}
            None => self.worst = Some((index, norm)),
        }
    }
}

/// Per-config summary statistics folded from a campaign's records in spec
/// order — what the campaign renderers print.
///
/// Holds one running mean per `(sm_count, organization)` cell plus the
/// gen-campaign LTRF member tail and the per-trace LTRF normalizations, so
/// its memory is bounded by the number of *configurations* (and traces),
/// never the point count.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RunningAggregates {
    cells: Vec<(usize, Organization, PointMeansAcc)>,
    ltrf_members: MemberTail,
    trace_norms: Vec<(String, f64)>,
}

impl RunningAggregates {
    /// Folds one completed record in; failures contribute nothing (the
    /// batch aggregations iterate successes only).
    fn push(&mut self, record: &PointRecord) {
        let Some(data) = record.outcome.data() else {
            return;
        };
        let sm_count = record.point.config.sm_count;
        let org = record.point.config.organization;
        let cell = match self
            .cells
            .iter_mut()
            .find(|(sm, o, _)| *sm == sm_count && *o == org)
        {
            Some((_, _, acc)) => acc,
            None => {
                self.cells.push((sm_count, org, PointMeansAcc::default()));
                &mut self.cells.last_mut().expect("just pushed").2
            }
        };
        cell.push(data);
        if org == Organization::Ltrf {
            if let (Some(generated), Some(norm)) = (record.point.generated, data.normalized_ipc) {
                self.ltrf_members.push(generated.index, norm);
            }
            if let (Some(_), Some(norm)) = (&record.point.trace, data.normalized_ipc) {
                self.trace_norms.push((record.point.workload.clone(), norm));
            }
        }
    }

    /// Folds a campaign's records in record (= spec) order.
    #[must_use]
    pub fn from_results(results: &SweepResults) -> Self {
        let mut agg = RunningAggregates::default();
        for record in &results.records {
            agg.push(record);
        }
        agg
    }

    /// The GPU-scaling pivot over the folded points: means per
    /// `(sm_count, organization)` cell in the given axis order, skipping
    /// empty cells.
    #[must_use]
    pub fn means(
        &self,
        sm_counts: &[usize],
        organizations: &[Organization],
    ) -> Vec<(usize, Organization, PointMeans)> {
        let mut out = Vec::new();
        for &sm_count in sm_counts {
            for &org in organizations {
                let acc = self
                    .cells
                    .iter()
                    .find(|(sm, o, _)| *sm == sm_count && *o == org);
                if let Some(means) = acc.and_then(|(_, _, acc)| acc.finish()) {
                    out.push((sm_count, org, means));
                }
            }
        }
        out
    }

    /// The gen-campaign LTRF member tail (wins, best, worst).
    #[must_use]
    pub(crate) fn ltrf_member_tail(&self) -> MemberTail {
        self.ltrf_members
    }

    /// Per-trace LTRF normalized IPC, in spec order (one entry per
    /// successful LTRF trace point).
    #[must_use]
    pub(crate) fn ltrf_trace_norms(&self) -> &[(String, f64)] {
        &self.trace_norms
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executor::{PointOutcome, SweepResults};
    use crate::spec::{SeedMode, SweepSpec};
    use crate::{point_key, report};

    fn synthetic_results_for(workloads: &[&str]) -> SweepResults {
        let spec = SweepSpec::builder("stream-test")
            .workloads(workloads.iter().copied())
            .seed_mode(SeedMode::Fixed(7))
            .build();
        let records = spec
            .points
            .iter()
            .enumerate()
            .map(|(i, point)| {
                let key = point_key(&spec, point);
                PointRecord {
                    point: point.clone(),
                    digest_hex: key.digest_hex,
                    seed: key.seed,
                    outcome: PointOutcome::Error(format!("synthetic #{i}")),
                    from_cache: false,
                }
            })
            .collect();
        SweepResults {
            name: spec.name,
            records,
        }
    }

    fn synthetic_results() -> SweepResults {
        synthetic_results_for(&["hotspot", "btree", "kmeans"])
    }

    #[test]
    fn streamed_csv_is_byte_identical_to_batch_even_out_of_order() {
        let results = synthetic_results();
        let path = std::env::temp_dir().join(format!("ltrf-stream-csv-{}", std::process::id()));
        let writer = StreamingCsvWriter::create(&path).unwrap();
        // Deliver in a scrambled completion order; the writer reorders.
        for &index in &[2usize, 0, 1] {
            writer.on_record(index, &results.records[index]);
        }
        writer.finish().unwrap();
        let streamed = std::fs::read_to_string(&path).unwrap();
        assert_eq!(streamed, report::to_csv(&results));
        let _ = std::fs::remove_file(&path);
    }

    /// The reorder buffer is bounded by the workers' completion skew; its
    /// worst case is fully reversed delivery, where the buffer must hold
    /// exactly `points - 1` rows before row 0 arrives and unblocks the
    /// whole cascade. This pins the boundary — the off-by-one hazard noted
    /// in the module docs — by checking the buffer's high-water mark, the
    /// single-callback full drain, and the final bytes.
    #[test]
    fn csv_reorder_buffer_survives_skew_equal_to_its_capacity() {
        let names: Vec<String> = (0..8).map(|i| format!("skew-wl-{i}")).collect();
        let refs: Vec<&str> = names.iter().map(String::as_str).collect();
        let results = synthetic_results_for(&refs);
        let n = results.records.len();
        assert!(n >= 8, "need a non-trivial point count, got {n}");
        let path = std::env::temp_dir().join(format!("ltrf-stream-skew-{}", std::process::id()));
        let writer = StreamingCsvWriter::create(&path).unwrap();
        // Everything except index 0, in reverse: nothing is consecutive
        // from `next == 0`, so every row parks in the buffer.
        for index in (1..n).rev() {
            writer.on_record(index, &results.records[index]);
        }
        {
            let state = writer.state.lock().unwrap();
            assert_eq!(state.next, 0, "no row may flush before index 0");
            assert_eq!(
                state.pending.len(),
                n - 1,
                "the buffer holds the full skew at its high-water mark"
            );
        }
        // Index 0 lands: one callback must drain all n rows.
        writer.on_record(0, &results.records[0]);
        {
            let state = writer.state.lock().unwrap();
            assert_eq!(state.next, n, "the cascade flushed every row");
            assert!(state.pending.is_empty(), "nothing may be left behind");
        }
        writer.finish().unwrap();
        let streamed = std::fs::read_to_string(&path).unwrap();
        assert_eq!(streamed, report::to_csv(&results));
        let _ = std::fs::remove_file(&path);
    }

    /// Live end-to-end pin: `run_streaming` with as many worker threads as
    /// points (so completion skew *can* reach the buffer's capacity) still
    /// writes a CSV byte-identical to the batch renderer over a separate,
    /// retained run of the same spec.
    #[test]
    fn run_streaming_with_threads_equal_to_points_matches_batch() {
        use crate::executor::{CampaignSession, ExecutorOptions, Unobserved};
        let spec = SweepSpec::builder("stream-skew-live")
            .workloads(["hotspot", "btree"])
            .seed_mode(SeedMode::Fixed(7))
            .build();
        let points = spec.points.len();
        let options = ExecutorOptions {
            threads: Some(points),
            ..ExecutorOptions::default()
        };
        let path =
            std::env::temp_dir().join(format!("ltrf-stream-skew-live-{}", std::process::id()));
        let csv = StreamingCsvWriter::create(&path).unwrap();
        let totals = CampaignSession::new(&spec, &options).run_streaming(&Unobserved, &csv);
        csv.finish().unwrap();
        assert_eq!(totals.computed, points);
        let batch = CampaignSession::new(&spec, &options).run(&Unobserved);
        let streamed = std::fs::read_to_string(&path).unwrap();
        assert_eq!(streamed, report::to_csv(&batch));
        let _ = std::fs::remove_file(&path);
    }
}
