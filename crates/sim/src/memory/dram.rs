//! GDDR5-like DRAM channel model with FR-FCFS scheduling effects.
//!
//! Each channel owns a set of banks with open-row state. A request's service
//! time depends on whether it hits the open row (CAS only) or needs a
//! precharge + activate + CAS sequence, and the channel's data bus serialises
//! bursts, which is what creates bandwidth saturation under load. True
//! FR-FCFS reordering is approximated: because row hits are served with a
//! much shorter occupancy, a hit-heavy stream achieves the higher bandwidth
//! an FR-FCFS scheduler would extract, while a random stream degenerates to
//! row-miss timing.

use serde::{Deserialize, Serialize};

use crate::config::MemoryConfig;
use crate::types::Cycle;

/// Cumulative DRAM statistics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct DramStats {
    /// Requests that hit an open row.
    pub row_hits: u64,
    /// Requests that required activating a new row.
    pub row_misses: u64,
    /// Total requests serviced.
    pub requests: u64,
    /// Cycles requests spent queued behind busy banks or channel buses —
    /// the direct measure of DRAM contention (grows superlinearly as more
    /// SMs share the channels).
    pub queue_wait_cycles: u64,
}

impl DramStats {
    /// Row-buffer hit rate in `[0, 1]`.
    #[must_use]
    pub fn row_hit_rate(&self) -> f64 {
        if self.requests == 0 {
            0.0
        } else {
            self.row_hits as f64 / self.requests as f64
        }
    }
}

#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
struct BankState {
    open_row: Option<u64>,
    ready_at: Cycle,
}

/// A multi-channel GDDR5-like memory system.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Dram {
    row_bytes: u64,
    channels: usize,
    banks_per_channel: usize,
    row_hit_latency: Cycle,
    row_miss_latency: Cycle,
    burst_cycles: Cycle,
    banks: Vec<BankState>,
    channel_bus_free: Vec<Cycle>,
    stats: DramStats,
}

impl Dram {
    /// Creates a DRAM model from the memory configuration.
    #[must_use]
    pub fn new(config: &MemoryConfig) -> Self {
        let banks = vec![
            BankState {
                open_row: None,
                ready_at: 0,
            };
            config.dram_channels * config.dram_banks_per_channel
        ];
        Dram {
            row_bytes: config.dram_row_bytes,
            channels: config.dram_channels,
            banks_per_channel: config.dram_banks_per_channel,
            row_hit_latency: config.dram_row_hit_latency,
            row_miss_latency: config.dram_row_miss_latency,
            burst_cycles: config.dram_burst_cycles,
            banks,
            channel_bus_free: vec![0; config.dram_channels],
            stats: DramStats::default(),
        }
    }

    /// Issues a request for `address` at `now`; returns the completion cycle.
    pub fn access(&mut self, address: u64, now: Cycle) -> Cycle {
        self.stats.requests += 1;
        let channel = ((address / self.row_bytes) % self.channels as u64) as usize;
        let row = address / (self.row_bytes * self.channels as u64 * self.banks_per_channel as u64);
        // XOR-permute the bank index with low row bits so that streams from
        // different address regions spread over different banks instead of
        // colliding, as real GDDR5 address hashing does.
        let bank_in_channel = (((address / (self.row_bytes * self.channels as u64)) ^ row)
            % self.banks_per_channel as u64) as usize;
        let bank_index = channel * self.banks_per_channel + bank_in_channel;

        let bank = &mut self.banks[bank_index];
        let row_hit = bank.open_row == Some(row);
        let core_latency = if row_hit {
            self.stats.row_hits += 1;
            self.row_hit_latency
        } else {
            self.stats.row_misses += 1;
            self.row_miss_latency
        };
        bank.open_row = Some(row);

        // The bank must be free, then the access takes its core latency, then
        // the channel's data bus is occupied for the burst.
        let start = now.max(bank.ready_at);
        let data_ready = start + core_latency;
        let bus_start = data_ready.max(self.channel_bus_free[channel]);
        self.stats.queue_wait_cycles += (start - now) + (bus_start - data_ready);
        let done = bus_start + self.burst_cycles;
        bank.ready_at = done;
        self.channel_bus_free[channel] = done;
        done
    }

    /// Cumulative statistics.
    #[must_use]
    pub(crate) fn stats(&self) -> DramStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dram() -> Dram {
        Dram::new(&MemoryConfig::default())
    }

    #[test]
    fn first_access_is_a_row_miss() {
        let mut d = dram();
        let done = d.access(0, 0);
        let cfg = MemoryConfig::default();
        assert_eq!(done, cfg.dram_row_miss_latency + cfg.dram_burst_cycles);
        assert_eq!(d.stats().row_misses, 1);
    }

    #[test]
    fn same_row_hits_are_faster() {
        let mut d = dram();
        let first = d.access(0, 0);
        let second = d.access(128, first);
        let cfg = MemoryConfig::default();
        assert_eq!(
            second - first,
            cfg.dram_row_hit_latency + cfg.dram_burst_cycles
        );
        assert!(d.stats().row_hit_rate() > 0.4);
    }

    #[test]
    fn different_channels_proceed_in_parallel() {
        let mut d = dram();
        let cfg = MemoryConfig::default();
        let a = d.access(0, 0);
        // Address one row further lands on the next channel.
        let b = d.access(cfg.dram_row_bytes, 0);
        assert_eq!(a, b, "independent channels see identical latency");
    }

    #[test]
    fn bank_conflicts_serialize() {
        let mut d = dram();
        let cfg = MemoryConfig::default();
        // Two different rows on the same channel and bank.
        let row_stride =
            cfg.dram_row_bytes * cfg.dram_channels as u64 * cfg.dram_banks_per_channel as u64;
        let a = d.access(0, 0);
        let b = d.access(row_stride, 0);
        assert!(b > a, "same-bank different-row requests serialise");
        assert_eq!(d.stats().row_misses, 2);
    }

    #[test]
    fn heavy_load_saturates_channel_bus() {
        let mut d = dram();
        // Many requests to the same row: each occupies the bus for the burst.
        let mut last = 0;
        for i in 0..100u64 {
            last = d.access(i * 4, 0);
        }
        let cfg = MemoryConfig::default();
        assert!(
            last >= 100 * cfg.dram_burst_cycles,
            "bus occupancy bounds bandwidth"
        );
        assert_eq!(d.stats().requests, 100);
    }
}
