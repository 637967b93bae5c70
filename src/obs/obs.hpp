// Umbrella header for instrumentation sites: spans (ZH_TRACE_SPAN) and
// run reports. The span macro compiles to a no-op when the ZH_OBS CMake
// option is OFF; with it ON it costs one relaxed atomic load until a
// run enables tracing at runtime. Counts come from what each run
// returns (StepTimes, WorkCounters, the cluster rank table), which run
// reports print.
#pragma once

#include "obs/report.hpp"
#include "obs/trace.hpp"
