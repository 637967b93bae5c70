// Umbrella header for instrumentation sites: spans (ZH_TRACE_SPAN),
// metrics (ZH_COUNTER_ADD / ZH_STAT_RECORD / ZH_LATENCY_RECORD) and run
// reports. All macros compile to no-ops when the ZH_OBS CMake option is
// OFF; with it ON they cost one relaxed atomic load until a run enables
// tracing/metrics at runtime.
#pragma once

#include "obs/latency_histogram.hpp"
#include "obs/metrics.hpp"
#include "obs/report.hpp"
#include "obs/trace.hpp"
