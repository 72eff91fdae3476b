// The monitor role (the paper's optional fourth module). The paper's
// monitor received an instrumentation stream from the foreman; here the
// foreman's metrics registry is that stream (counts, per-round barrier
// slack and duration, telemetry frames) and its trace instants record every
// worker health transition. The rank keeps its slot in the layout so
// deployments and the four-processor minimum stay as the paper has them.
#pragma once

#include "comm/transport.hpp"

namespace fdml {

/// Runs the monitor rank until shutdown (or until the fabric closes).
void monitor_main(Transport& transport);

}  // namespace fdml
