// Umbrella header: the zonalhist public API.
//
// Typical usage (see examples/quickstart.cpp):
//
//   zh::Device device;   // virtual GPU: one pool task per kernel block
//   zh::ZonalPipeline pipe(device, {.tile_size = 360, .bins = 5000});
//   zh::ZonalResult r = pipe.run(raster, counties);
//   auto stats = zh::stats_from_histogram(r.per_polygon.of(0));
#pragma once

#include "bqtree/bqtree.hpp"               // IWYU pragma: export
#include "bqtree/compressed_raster.hpp"    // IWYU pragma: export
#include "cluster/comm.hpp"                // IWYU pragma: export
#include "cluster/fault.hpp"               // IWYU pragma: export
#include "cluster/partition.hpp"           // IWYU pragma: export
#include "common/crc32.hpp"                // IWYU pragma: export
#include "common/error.hpp"                // IWYU pragma: export
#include "common/timer.hpp"                // IWYU pragma: export
#include "common/types.hpp"                // IWYU pragma: export
#include "core/baseline.hpp"               // IWYU pragma: export
#include "core/checkpoint.hpp"             // IWYU pragma: export
#include "core/cluster_driver.hpp"         // IWYU pragma: export
#include "core/histogram.hpp"              // IWYU pragma: export
#include "core/load_balance.hpp"           // IWYU pragma: export
#include "core/multiband.hpp"              // IWYU pragma: export
#include "core/perf_model.hpp"             // IWYU pragma: export
#include "core/pipeline.hpp"               // IWYU pragma: export
#include "core/query_engine.hpp"           // IWYU pragma: export
#include "data/conus.hpp"                  // IWYU pragma: export
#include "data/county_synth.hpp"           // IWYU pragma: export
#include "data/dem_synth.hpp"              // IWYU pragma: export
#include "device/device.hpp"               // IWYU pragma: export
#include "geom/classify.hpp"               // IWYU pragma: export
#include "geom/pip.hpp"                    // IWYU pragma: export
#include "geom/polygon.hpp"                // IWYU pragma: export
#include "geom/simplify.hpp"               // IWYU pragma: export
#include "geom/soa.hpp"                    // IWYU pragma: export
#include "geom/validate.hpp"               // IWYU pragma: export
#include "geom/wkt.hpp"                    // IWYU pragma: export
#include "grid/geotransform.hpp"           // IWYU pragma: export
#include "grid/morton.hpp"                 // IWYU pragma: export
#include "grid/raster.hpp"                 // IWYU pragma: export
#include "grid/tiling.hpp"                 // IWYU pragma: export
#include "io/ascii_grid.hpp"               // IWYU pragma: export
#include "io/bq_file.hpp"                  // IWYU pragma: export
#include "io/catalog.hpp"                  // IWYU pragma: export
#include "io/histogram_io.hpp"             // IWYU pragma: export
#include "io/journal.hpp"                  // IWYU pragma: export
#include "io/vector_io.hpp"                // IWYU pragma: export
#include "io/zgrid.hpp"                    // IWYU pragma: export
#include "obs/obs.hpp"                     // IWYU pragma: export
