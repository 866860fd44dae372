//! Structured campaign reporters: JSON (full fidelity) and CSV (flat, one
//! row per point, ready for plotting tools).

use std::fs;
use std::io;
use std::path::Path;

use crate::executor::{PointOutcome, PointRecord, SweepResults};
use crate::spec::MemorySelection;

/// Writes the full campaign as JSON.
///
/// # Errors
///
/// Returns the underlying I/O error.
pub fn write_json(results: &SweepResults, path: impl AsRef<Path>) -> io::Result<()> {
    fs::write(path, serde::to_json_string(results))
}

fn csv_escape(field: &str) -> String {
    if field.contains(',') || field.contains('"') || field.contains('\n') {
        format!("\"{}\"", field.replace('"', "\"\""))
    } else {
        field.to_string()
    }
}

/// The shared campaign-CSV schema, in column order — every campaign writes
/// exactly these columns (one row per point), so downstream tooling can
/// treat all artifact CSVs uniformly. The header row of [`to_csv`] and the
/// `sweep describe` output are both generated from this list, and
/// `REPRODUCING.md` documents each column's meaning.
pub const CSV_COLUMNS: [&str; 23] = [
    "workload",
    "gen_seed",
    "gen_index",
    "organization",
    "config_id",
    "latency_factor",
    "registers_per_interval",
    "active_warps",
    "sm_count",
    "memory",
    "seed",
    "status",
    "ipc",
    "normalized_ipc",
    "normalized_power",
    "power_mw",
    "energy_pj",
    "leakage_pj",
    "cache_hit_rate",
    "l2_hit_rate",
    "dram_row_hit_rate",
    "from_cache",
    "error",
];

/// Extra columns appended by [`CsvSchema::Interconnect`], after the 23
/// standard columns: the network configuration of the point and the
/// NoC/slice-contention statistics of its run. Multi-SM points fill the
/// stats from the shared memory; single-SM points (which never touch it)
/// report zeros.
pub const INTERCONNECT_CSV_COLUMNS: [&str; 10] = [
    "topology",
    "link_width",
    "queue_depth",
    "interleave",
    "l2_queue_wait_cycles",
    "l2_slice_wait_min",
    "l2_slice_wait_max",
    "noc_mean_latency",
    "noc_max_queue_wait",
    "noc_max_link_occupancy",
];

/// Which column set a campaign's CSV carries.
///
/// Every campaign has written exactly [`CSV_COLUMNS`] since the schema was
/// frozen (the fig9/fig12 golden fixtures pin those bytes), so extension
/// happens by *appending* columns behind an explicit schema choice rather
/// than editing the shared list. `Standard` is byte-identical to the
/// historical output; `Interconnect` appends [`INTERCONNECT_CSV_COLUMNS`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CsvSchema {
    /// The frozen 23-column schema every pre-interconnect campaign writes.
    #[default]
    Standard,
    /// Standard plus the interconnect configuration/stats columns (the
    /// `sweep interconnect` campaign).
    Interconnect,
}

impl CsvSchema {
    /// The schema a spec's CSV should be written with: `interconnect`
    /// campaign specs (by name) and any spec whose points carry a
    /// non-default network get the extended columns.
    #[must_use]
    pub fn for_spec(spec: &crate::spec::SweepSpec) -> Self {
        let non_default = spec
            .points
            .iter()
            .any(|p| p.config.interconnect != ltrf_sim::InterconnectConfig::default());
        if spec.name.starts_with("interconnect") || non_default {
            CsvSchema::Interconnect
        } else {
            CsvSchema::Standard
        }
    }

    /// The header row for this schema (no trailing newline).
    #[must_use]
    pub fn header(self) -> String {
        match self {
            CsvSchema::Standard => CSV_COLUMNS.join(","),
            CsvSchema::Interconnect => {
                let mut header = CSV_COLUMNS.join(",");
                header.push(',');
                header.push_str(&INTERCONNECT_CSV_COLUMNS.join(","));
                header
            }
        }
    }

    /// Renders one record as its CSV row under this schema (no trailing
    /// newline).
    #[must_use]
    pub fn row(self, record: &PointRecord) -> String {
        let mut row = csv_row(record);
        if self == CsvSchema::Interconnect {
            let icn = &record.point.config.interconnect;
            let data = record.outcome.data();
            let memory = data.map(|d| d.result.stats.memory);
            let uint = |v: Option<u64>| v.map(|u| u.to_string()).unwrap_or_default();
            let extra = [
                icn.topology.label().to_string(),
                icn.link_width.to_string(),
                icn.queue_depth.to_string(),
                icn.interleave.label().to_string(),
                uint(memory.map(|m| m.l2_queue_wait_cycles)),
                uint(memory.map(|m| m.l2_slice_wait_min)),
                uint(memory.map(|m| m.l2_slice_wait_max)),
                memory
                    .map(|m| format!("{:.6}", m.noc.mean_latency()))
                    .unwrap_or_default(),
                uint(memory.map(|m| m.noc.max_queue_wait)),
                uint(memory.map(|m| m.noc.max_link_occupancy)),
            ];
            row.push(',');
            row.push_str(&extra.join(","));
        }
        row
    }
}

fn memory_label(memory: MemorySelection) -> &'static str {
    match memory {
        MemorySelection::WorkloadDefault => "default",
        MemorySelection::Streaming => "streaming",
        MemorySelection::CacheResident => "cache_resident",
        MemorySelection::Irregular => "irregular",
    }
}

/// The CSV header row (no trailing newline): [`CSV_COLUMNS`] joined.
#[must_use]
pub(crate) fn csv_header() -> String {
    CSV_COLUMNS.join(",")
}

/// Renders one record as its CSV row (no trailing newline).
///
/// This is the single row renderer behind both [`to_csv`] (the batch path)
/// and the streaming
/// [`StreamingCsvWriter`](crate::stream::StreamingCsvWriter), so the two
/// emit byte-identical rows by construction.
#[must_use]
pub(crate) fn csv_row(record: &PointRecord) -> String {
    let point = &record.point;
    let (status, error) = match &record.outcome {
        PointOutcome::Ok(_) => ("ok", String::new()),
        PointOutcome::Error(e) => ("error", e.clone()),
        PointOutcome::Panicked(e) => ("panicked", e.clone()),
    };
    let data = record.outcome.data();
    let float = |v: Option<f64>| v.map(|f| format!("{f:.6}")).unwrap_or_default();
    let row = [
        csv_escape(&point.workload),
        point
            .generated
            .map(|g| g.population_seed.to_string())
            .unwrap_or_default(),
        point
            .generated
            .map(|g| g.index.to_string())
            .unwrap_or_default(),
        point.config.organization.label().to_string(),
        point.config.mrf_config.id.0.to_string(),
        format!("{:.3}", point.config.latency_factor()),
        point.config.registers_per_interval.to_string(),
        point.config.active_warps.to_string(),
        point.config.sm_count.to_string(),
        memory_label(point.memory).to_string(),
        record.seed.to_string(),
        status.to_string(),
        float(data.map(|d| d.result.ipc)),
        float(data.and_then(|d| d.normalized_ipc)),
        float(data.and_then(|d| d.normalized_power)),
        float(data.map(|d| d.result.power.average_power_mw)),
        float(data.map(|d| d.result.power.total_pj())),
        float(data.map(|d| d.result.power.leakage_pj)),
        float(data.and_then(|d| d.result.cache_hit_rate)),
        // The aggregate stats carry the shared structures' totals for
        // multi-SM points and the private LLC/DRAM for single-SM ones.
        float(data.map(|d| d.result.stats.memory.llc.hit_rate())),
        float(data.map(|d| d.result.stats.memory.dram.row_hit_rate())),
        record.from_cache.to_string(),
        csv_escape(&error),
    ];
    row.join(",")
}

/// Renders the campaign as CSV text.
///
/// Generated-population points fill the `gen_seed`/`gen_index` columns with
/// their population identity; suite points leave them empty. The
/// `power_mw`/`energy_pj`/`leakage_pj` columns carry the register-file
/// power model's absolute outputs (per-SM for multi-SM points) so the power
/// artifacts (Figure 10 and the `sweep power` design-point sweep) are fully
/// reconstructible from the CSV; `normalized_power` remains the paper's
/// baseline-relative reporting convention. `REPRODUCING.md` documents every
/// column.
///
/// Campaigns too large to retain their rows stream the same bytes through a
/// [`StreamingCsvWriter`](crate::StreamingCsvWriter) instead.
#[must_use]
pub fn to_csv(results: &SweepResults) -> String {
    let mut out = csv_header();
    out.push('\n');
    for record in &results.records {
        out.push_str(&csv_row(record));
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn csv_escaping() {
        assert_eq!(csv_escape("plain"), "plain");
        assert_eq!(csv_escape("a,b"), "\"a,b\"");
        assert_eq!(csv_escape("say \"hi\""), "\"say \"\"hi\"\"\"");
    }

    #[test]
    fn standard_schema_is_byte_identical_to_the_frozen_header() {
        // The fig9/fig12 golden fixtures pin these bytes; Standard must
        // never drift.
        assert_eq!(CsvSchema::Standard.header(), csv_header());
        assert_eq!(csv_header(), CSV_COLUMNS.join(","));
    }

    #[test]
    fn interconnect_schema_appends_without_touching_standard_columns() {
        let header = CsvSchema::Interconnect.header();
        assert!(header.starts_with(&csv_header()));
        let appended = header.strip_prefix(&csv_header()).unwrap();
        assert_eq!(appended, format!(",{}", INTERCONNECT_CSV_COLUMNS.join(",")));
        assert_eq!(
            header.split(',').count(),
            CSV_COLUMNS.len() + INTERCONNECT_CSV_COLUMNS.len()
        );
    }

    #[test]
    fn schema_selection_follows_name_and_network() {
        use crate::spec::SweepSpec;
        use ltrf_core::Organization;
        use ltrf_sim::{InterconnectConfig, Topology};
        let standard = SweepSpec::builder("fig9")
            .workloads(["hotspot"])
            .organizations([Organization::Ltrf])
            .build();
        assert_eq!(CsvSchema::for_spec(&standard), CsvSchema::Standard);
        let by_name = SweepSpec::builder("interconnect-ideal")
            .workloads(["hotspot"])
            .build();
        assert_eq!(CsvSchema::for_spec(&by_name), CsvSchema::Interconnect);
        let by_network = SweepSpec::builder("custom")
            .workloads(["hotspot"])
            .interconnect(InterconnectConfig::with_topology(Topology::Mesh2D))
            .build();
        assert_eq!(CsvSchema::for_spec(&by_network), CsvSchema::Interconnect);
    }
}
