// The benchmark's workloads.  Each runs one closed loop for
// Options::seconds, verifies the outputs outside the timed window, and
// fills a Report with the end-to-end metrics (untraced run) or the
// per-layer metrics (traced run).  README.md lists the metrics.
#pragma once

#include "report.hpp"

namespace perfbench {

/// `svc_hot` or `svc_cold`: sweep-service traffic over the daemon's frame
/// path (socketpair transport, one session thread per client).
[[nodiscard]] Report run_service_workload(const Options& options);

/// `mc_ensemble`: back-to-back homogeneous Monte-Carlo studies.
[[nodiscard]] Report run_mc_workload(const Options& options);

}  // namespace perfbench
