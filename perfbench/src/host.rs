//! The host's CPU steal: time the hypervisor gave this machine's virtual
//! CPUs to someone else, read from the aggregate `cpu` line of
//! `/proc/stat`.

/// Cumulative CPU time of the machine, in clock ticks.
#[derive(Clone, Copy)]
pub struct CpuTimes {
    steal: u64,
    total: u64,
}

/// The machine's CPU times now; `None` where `/proc/stat` cannot be read.
pub fn cpu_times() -> Option<CpuTimes> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let line = stat.lines().find(|l| l.starts_with("cpu "))?;
    let fields: Vec<u64> = line
        .split_whitespace()
        .skip(1)
        .map(|f| f.parse().unwrap_or(0))
        .collect();
    // user nice system idle iowait irq softirq steal [guest guest_nice];
    // guest time is already counted in user and nice.
    let counted = fields.len().min(8);
    Some(CpuTimes {
        steal: fields.get(7).copied().unwrap_or(0),
        total: fields[..counted].iter().sum(),
    })
}

/// The share of the machine's CPU time stolen between two readings; 0
/// when either is missing.
pub fn steal_share(from: Option<CpuTimes>, to: Option<CpuTimes>) -> f64 {
    match (from, to) {
        (Some(a), Some(b)) if b.total > a.total => {
            b.steal.saturating_sub(a.steal) as f64 / (b.total - a.total) as f64
        }
        _ => 0.0,
    }
}
