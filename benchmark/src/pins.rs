//! `Stats` counters pinned at the default seed (2016) and the committed
//! scale. A change to any layer that moves one of these changed what the
//! system computes, not just how fast; re-pin only with a reason.
//! (`BENCHMARK.json` admits no extra keys, so the pins live here.)

use crate::workload::{Counters, Workload};

pub fn counters(workload: Workload) -> Counters {
    match workload {
        // Checking must not change a byte: one pin for both campaigns.
        Workload::CampaignVerified | Workload::CampaignUnchecked => Counters {
            events_processed: 37_399,
            injected: 5_987,
            delivered_packets: 5_347,
            delivered_bytes: 2_777_184,
            dropped: [640, 0, 0, 0],
        },
        Workload::StreamVerified => Counters {
            events_processed: 30_003,
            injected: 4_400,
            delivered_packets: 4_400,
            delivered_bytes: 2_253_788,
            dropped: [0, 0, 0, 0],
        },
        Workload::StreamUnchecked => Counters {
            events_processed: 400_026,
            injected: 58_679,
            delivered_packets: 58_679,
            delivered_bytes: 30_044_636,
            dropped: [0, 0, 0, 0],
        },
    }
}
