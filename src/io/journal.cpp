#include "io/journal.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>

#include "common/crc32.hpp"
#include "common/timer.hpp"
#include "geom/soa.hpp"
#include "obs/obs.hpp"

namespace zh {

namespace {

constexpr std::array<char, 4> kMagic = {'Z', 'J', 'R', 'N'};
constexpr std::uint32_t kVersion = 1;
/// raster_fp + zones_fp + config_fp + partition_count + groups + bins.
constexpr std::size_t kManifestBytes = 8 + 8 + 8 + 4 + 8 + 4;
/// magic + version + manifest + manifest CRC.
constexpr std::size_t kHeaderBytes = 4 + 4 + kManifestBytes + 4;
/// generation + part_index + nnz; the smallest legal record payload.
constexpr std::uint64_t kMinPayload = 4 + 4 + 8;
/// One sparse histogram entry: flat bin index (u64) + count (u32).
constexpr std::uint64_t kEntryBytes = 8 + 4;

static_assert(std::endian::native == std::endian::little,
              "journal I/O assumes a little-endian host");

template <typename T>
void put_pod(std::vector<char>& buf, const T& v) {
  static_assert(std::is_trivially_copyable_v<T>);
  const auto* p = reinterpret_cast<const char*>(&v);
  buf.insert(buf.end(), p, p + sizeof(T));
}

template <typename T>
T get_pod(std::span<const char> buf, std::size_t& pos) {
  static_assert(std::is_trivially_copyable_v<T>);
  ZH_REQUIRE_IO(pos + sizeof(T) <= buf.size(), "journal blob too short");
  T v{};
  std::memcpy(&v, buf.data() + pos, sizeof(T));
  pos += sizeof(T);
  return v;
}

/// Histogram flat length, overflow-guarded so frame-length bounds derived
/// from it cannot wrap (the manifest is CRC-verified, but a hostile file
/// must still fail cleanly, not allocate absurdly).
std::uint64_t flat_size(const RunManifest& m, const std::string& path) {
  constexpr std::uint64_t kMaxFlat =
      std::numeric_limits<std::uint64_t>::max() / (2 * kEntryBytes);
  ZH_REQUIRE_IO(m.bins == 0 || m.groups <= kMaxFlat / m.bins,
                "journal manifest histogram shape overflows (", m.groups,
                " groups x ", m.bins, " bins) in ", path);
  return m.groups * m.bins;
}

void write_all(int fd, const char* data, std::size_t size,
               const std::string& path) {
  std::size_t done = 0;
  while (done < size) {
    const ssize_t n = ::write(fd, data + done, size - done);
    if (n < 0) {
      if (errno == EINTR) continue;
      ZH_REQUIRE_IO(false, "journal write failed for ", path, ": ",
                    std::strerror(errno));
    }
    done += static_cast<std::size_t>(n);
  }
}

void sync_fd(int fd, const std::string& path) {
  Timer timer;
  ZH_REQUIRE_IO(::fsync(fd) == 0, "journal fsync failed for ", path, ": ",
                std::strerror(errno));
  ZH_LATENCY_RECORD("latency.journal_fsync", timer.seconds());
}

std::vector<char> manifest_blob(const RunManifest& m) {
  std::vector<char> blob;
  blob.reserve(kManifestBytes);
  put_pod(blob, m.raster_fingerprint);
  put_pod(blob, m.zones_fingerprint);
  put_pod(blob, m.config_fingerprint);
  put_pod(blob, m.partition_count);
  put_pod(blob, m.groups);
  put_pod(blob, m.bins);
  return blob;
}

std::uint64_t mix_u64(std::uint64_t h, std::uint64_t v) {
  return splitmix64(h ^ v);
}

std::uint64_t mix_double(std::uint64_t h, double v) {
  return mix_u64(h, std::bit_cast<std::uint64_t>(v));
}

}  // namespace

JournalLoad load_journal(const std::string& path) {
  ZH_TRACE_SPAN("io.load_journal", "io");
  const auto start = std::chrono::steady_clock::now();
  std::ifstream is(path, std::ios::binary);
  ZH_REQUIRE_IO(is.is_open(), "cannot open journal for read: ", path);
  std::error_code ec;
  const std::uintmax_t file_size = std::filesystem::file_size(path, ec);
  ZH_REQUIRE_IO(!ec, "cannot stat journal ", path);
  ZH_REQUIRE_IO(file_size >= kHeaderBytes, "journal header truncated in ",
                path, " (", file_size, " bytes, need ", kHeaderBytes, ")");
  std::vector<char> bytes(static_cast<std::size_t>(file_size));
  is.read(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  ZH_REQUIRE_IO(is.good(), "cannot read journal ", path);

  std::size_t pos = 0;
  std::array<char, 4> magic{};
  std::memcpy(magic.data(), bytes.data(), magic.size());
  pos += magic.size();
  ZH_REQUIRE_IO(magic == kMagic, "bad journal magic in ", path);
  const auto version = get_pod<std::uint32_t>(bytes, pos);
  ZH_REQUIRE_IO(version == kVersion, "unsupported journal version ", version,
                " in ", path, " (this build reads version ", kVersion, ")");
  const std::size_t manifest_off = pos;
  JournalLoad load;
  load.manifest.raster_fingerprint = get_pod<std::uint64_t>(bytes, pos);
  load.manifest.zones_fingerprint = get_pod<std::uint64_t>(bytes, pos);
  load.manifest.config_fingerprint = get_pod<std::uint64_t>(bytes, pos);
  load.manifest.partition_count = get_pod<std::uint32_t>(bytes, pos);
  load.manifest.groups = get_pod<std::uint64_t>(bytes, pos);
  load.manifest.bins = get_pod<std::uint32_t>(bytes, pos);
  const auto manifest_crc = get_pod<std::uint32_t>(bytes, pos);
  ZH_REQUIRE_IO(crc32(bytes.data() + manifest_off, kManifestBytes) ==
                    manifest_crc,
                "journal manifest CRC mismatch in ", path,
                " (corrupted or truncated header)");

  const std::uint64_t flat = flat_size(load.manifest, path);
  const std::uint64_t max_payload = kMinPayload + flat * kEntryBytes;
  load.merged_bins.assign(static_cast<std::size_t>(flat), BinCount{0});
  std::vector<char> seen_global(load.manifest.partition_count, 0);
  std::vector<char> seen_this_gen(load.manifest.partition_count, 0);

  // Frame walk with the torn-tail rule: the first frame that is short,
  // absurdly sized, or CRC-broken ends the trusted prefix -- a kill mid
  // write leaves exactly such a tail. Violations *inside* a CRC-valid
  // frame, by contrast, mean the writer (or a tamperer) broke the format
  // and are hard IoErrors: truncating would silently drop good records.
  std::size_t off = kHeaderBytes;
  while (true) {
    if (off + 4 + kMinPayload + 4 > bytes.size()) break;  // torn/end
    std::size_t cur = off;
    const auto len = get_pod<std::uint32_t>(bytes, cur);
    if (len < kMinPayload || len > max_payload ||
        cur + len + 4 > bytes.size()) {
      break;  // torn length field or truncated payload
    }
    const std::span<const char> payload(bytes.data() + cur, len);
    cur += len;
    const auto frame_crc = get_pod<std::uint32_t>(bytes, cur);
    if (crc32(payload.data(), payload.size()) != frame_crc) break;  // torn

    std::size_t p = 0;
    JournalRecordInfo rec;
    rec.generation = get_pod<std::uint32_t>(payload, p);
    rec.part_index = get_pod<std::uint32_t>(payload, p);
    const auto nnz = get_pod<std::uint64_t>(payload, p);
    ZH_REQUIRE_IO(nnz <= flat, "journal record nnz ", nnz, " exceeds ", flat,
                  " histogram slots in ", path);
    ZH_REQUIRE_IO(len == kMinPayload + nnz * kEntryBytes,
                  "journal record length ", len, " disagrees with nnz ", nnz,
                  " in ", path);
    ZH_REQUIRE_IO(rec.part_index < load.manifest.partition_count,
                  "journal partition index ", rec.part_index,
                  " out of range (", load.manifest.partition_count,
                  " partitions) in ", path);
    if (!load.records.empty()) {
      ZH_REQUIRE_IO(rec.generation >= load.last_generation,
                    "journal generations must be non-decreasing: record at "
                    "byte ", off, " has generation ", rec.generation,
                    " after ", load.last_generation, " in ", path);
      if (rec.generation > load.last_generation) {
        std::fill(seen_this_gen.begin(), seen_this_gen.end(), 0);
      }
    }
    ZH_REQUIRE_IO(seen_this_gen[rec.part_index] == 0,
                  "journal partition ", rec.part_index,
                  " appears twice in generation ", rec.generation, " in ",
                  path);
    seen_this_gen[rec.part_index] = 1;
    load.last_generation = rec.generation;

    // First copy wins across generations, mirroring the master's
    // idempotent acceptance; later duplicates are valid but inert.
    const bool fresh = seen_global[rec.part_index] == 0;
    for (std::uint64_t i = 0; i < nnz; ++i) {
      const auto index = get_pod<std::uint64_t>(payload, p);
      const auto count = get_pod<BinCount>(payload, p);
      ZH_REQUIRE_IO(index < flat, "journal bin index ", index,
                    " out of range (", flat, " slots) in ", path);
      if (fresh) {
        load.merged_bins[static_cast<std::size_t>(index)] += count;
      }
    }
    if (fresh) {
      seen_global[rec.part_index] = 1;
      load.completed.push_back(rec.part_index);
    }
    load.records.push_back(rec);
    off = cur;
  }
  load.valid_bytes = off;
  load.torn_bytes = bytes.size() - off;

  load.resume_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  ZH_COUNTER_ADD("journal.resume_ms",
                 static_cast<std::uint64_t>(load.resume_seconds * 1e3));
  ZH_COUNTER_ADD("journal.torn_bytes", load.torn_bytes);
  return load;
}

JournalWriter::JournalWriter(int fd, std::string path,
                             const RunManifest& manifest,
                             std::uint32_t generation,
                             JournalWriterOptions options)
    : fd_(fd),
      path_(std::move(path)),
      manifest_(manifest),
      generation_(generation),
      options_(options),
      written_(manifest.partition_count, 0) {
  ZH_REQUIRE(options_.fsync_interval >= 1,
             "journal fsync interval must be at least 1");
}

JournalWriter JournalWriter::create(const std::string& path,
                                    const RunManifest& manifest,
                                    JournalWriterOptions options) {
  // O_TRUNC: a fresh generation-0 journal supersedes whatever was there
  // (callers resume via append()).
  const int fd =
      ::open(path.c_str(), O_CREAT | O_TRUNC | O_WRONLY | O_CLOEXEC, 0644);
  ZH_REQUIRE_IO(fd >= 0, "cannot open journal for write: ", path, ": ",
                std::strerror(errno));
  JournalWriter writer(fd, path, manifest, /*generation=*/0, options);
  std::vector<char> header;
  header.reserve(kHeaderBytes);
  header.insert(header.end(), kMagic.begin(), kMagic.end());
  put_pod(header, kVersion);
  const std::vector<char> blob = manifest_blob(manifest);
  header.insert(header.end(), blob.begin(), blob.end());
  put_pod(header, crc32(blob.data(), blob.size()));
  write_all(fd, header.data(), header.size(), path);
  // The manifest must be durable before any record refers to it.
  sync_fd(fd, path);
  return writer;
}

JournalWriter JournalWriter::append(const std::string& path,
                                    const JournalLoad& load,
                                    JournalWriterOptions options) {
  const int fd = ::open(path.c_str(), O_WRONLY | O_CLOEXEC);
  ZH_REQUIRE_IO(fd >= 0, "cannot open journal for append: ", path, ": ",
                std::strerror(errno));
  // Cut the torn tail off on disk before appending, so the new
  // generation's first frame starts at a frame boundary.
  ZH_REQUIRE_IO(
      ::ftruncate(fd, static_cast<off_t>(load.valid_bytes)) == 0,
      "cannot truncate journal torn tail in ", path, ": ",
      std::strerror(errno));
  ZH_REQUIRE_IO(::lseek(fd, static_cast<off_t>(load.valid_bytes), SEEK_SET) >=
                    0,
                "cannot seek journal ", path, ": ", std::strerror(errno));
  const std::uint32_t generation =
      load.records.empty() ? 0 : load.last_generation + 1;
  JournalWriter writer(fd, path, load.manifest, generation, options);
  // Partitions prior generations completed must never be re-journaled:
  // the driver skips them, so a second record is a resume-wiring bug.
  for (const std::uint32_t index : load.completed) {
    writer.written_[index] = 1;
  }
  if (load.torn_bytes > 0) sync_fd(fd, path);
  return writer;
}

JournalWriter::JournalWriter(JournalWriter&& other) noexcept
    : fd_(other.fd_),
      path_(std::move(other.path_)),
      manifest_(other.manifest_),
      generation_(other.generation_),
      options_(other.options_),
      records_written_(other.records_written_),
      pending_since_sync_(other.pending_since_sync_),
      written_(std::move(other.written_)) {
  other.fd_ = -1;
}

JournalWriter& JournalWriter::operator=(JournalWriter&& other) noexcept {
  if (this != &other) {
    if (fd_ >= 0) {
      static_cast<void>(::fsync(fd_));
      static_cast<void>(::close(fd_));
    }
    fd_ = other.fd_;
    path_ = std::move(other.path_);
    manifest_ = other.manifest_;
    generation_ = other.generation_;
    options_ = other.options_;
    records_written_ = other.records_written_;
    pending_since_sync_ = other.pending_since_sync_;
    written_ = std::move(other.written_);
    other.fd_ = -1;
  }
  return *this;
}

JournalWriter::~JournalWriter() {
  if (fd_ < 0) return;
  // Best-effort durability on close; destructors cannot throw. Callers
  // needing a hard guarantee call flush() themselves.
  static_cast<void>(::fsync(fd_));
  static_cast<void>(::close(fd_));
}

void JournalWriter::on_partition_complete(std::uint32_t part_index,
                                          std::span<const BinCount> bins) {
  ZH_REQUIRE(fd_ >= 0, "journal writer is closed (moved from?)");
  ZH_REQUIRE(part_index < manifest_.partition_count,
             "journal partition index ", part_index, " out of range (",
             manifest_.partition_count, " partitions)");
  ZH_REQUIRE(written_[part_index] == 0, "partition ", part_index,
             " journaled twice in generation ", generation_,
             " -- the driver's first-copy-wins acceptance must gate the "
             "sink");
  const std::uint64_t flat = flat_size(manifest_, path_);
  ZH_REQUIRE(bins.size() == flat, "journal record histogram size mismatch: ",
             bins.size(), " bins, manifest says ", flat);

  // Sparse encoding: zonal histograms over fine bins are mostly zero, so
  // (flat index, count) pairs beat a dense dump by orders of magnitude.
  std::uint64_t nnz = 0;
  for (const BinCount c : bins) {
    if (c != 0) ++nnz;
  }
  std::vector<char> frame;
  frame.reserve(4 + kMinPayload + nnz * kEntryBytes + 4);
  put_pod(frame,
          static_cast<std::uint32_t>(kMinPayload + nnz * kEntryBytes));
  const std::size_t payload_off = frame.size();
  put_pod(frame, generation_);
  put_pod(frame, part_index);
  put_pod(frame, nnz);
  for (std::uint64_t i = 0; i < bins.size(); ++i) {
    if (bins[static_cast<std::size_t>(i)] == 0) continue;
    put_pod(frame, i);
    put_pod(frame, bins[static_cast<std::size_t>(i)]);
  }
  put_pod(frame,
          crc32(frame.data() + payload_off, frame.size() - payload_off));

  // Scripted torn write: persist only half the frame, then die as a
  // SIGKILL would -- the reader's torn-tail rule must recover cleanly.
  if (options_.abort.point == CrashPoint::kJournalRecord &&
      records_written_ == options_.abort.occurrence) {
    write_all(fd_, frame.data(), frame.size() / 2, path_);
    sync_fd(fd_, path_);
    hard_exit(CrashPoint::kJournalRecord,
              static_cast<std::uint32_t>(records_written_));
  }

  write_all(fd_, frame.data(), frame.size(), path_);
  written_[part_index] = 1;
  ++records_written_;
  ZH_COUNTER_ADD("journal.records_written", 1);
  if (++pending_since_sync_ >= options_.fsync_interval) flush();
}

void JournalWriter::flush() {
  ZH_REQUIRE(fd_ >= 0, "journal writer is closed (moved from?)");
  if (pending_since_sync_ == 0) return;
  sync_fd(fd_, path_);
  pending_since_sync_ = 0;
}

std::uint64_t fingerprint_rasters(const std::vector<DemRaster>& rasters) {
  std::uint64_t h = mix_u64(0x5A4E414C9E3779B9ull, rasters.size());
  for (const DemRaster& r : rasters) {
    h = mix_u64(h, static_cast<std::uint64_t>(r.rows()));
    h = mix_u64(h, static_cast<std::uint64_t>(r.cols()));
    h = mix_double(h, r.transform().origin_x());
    h = mix_double(h, r.transform().origin_y());
    h = mix_double(h, r.transform().cell_w());
    h = mix_double(h, r.transform().cell_h());
    h = mix_u64(h, r.nodata().has_value()
                       ? 1ull + static_cast<std::uint64_t>(*r.nodata())
                       : 0ull);
    const auto cells = r.cells();
    h = mix_u64(h, crc32(cells.data(), cells.size_bytes()));
  }
  return h;
}

std::uint64_t fingerprint_zones(const PolygonSet& polygons) {
  const PolygonSoA soa = PolygonSoA::build(polygons);
  std::uint64_t h = mix_u64(0x7A4F4E45535F4650ull, polygons.size());
  h = mix_u64(h, crc32(soa.ply_v().data(), soa.ply_v().size_bytes()));
  h = mix_u64(h, crc32(soa.x_v().data(), soa.x_v().size_bytes()));
  h = mix_u64(h, crc32(soa.y_v().data(), soa.y_v().size_bytes()));
  return h;
}

std::uint64_t fingerprint_config(
    const std::vector<std::pair<int, int>>& schemas,
    const ZonalConfig& zonal) {
  std::uint64_t h = mix_u64(0x434F4E4649475F46ull, schemas.size());
  for (const auto& [rows, cols] : schemas) {
    h = mix_u64(h, static_cast<std::uint64_t>(static_cast<std::int64_t>(rows)));
    h = mix_u64(h, static_cast<std::uint64_t>(static_cast<std::int64_t>(cols)));
  }
  h = mix_u64(h, static_cast<std::uint64_t>(zonal.tile_size));
  h = mix_u64(h, zonal.bins);
  // count_mode no longer reaches the executor; hashed for older journals.
  h = mix_u64(h, static_cast<std::uint64_t>(zonal.count_mode));
  // Slot of the removed compressed-partitions flag. The CLI never set
  // it, so hashing its old value keeps older journals resumable.
  h = mix_u64(h, 0);
  return h;
}

RunManifest make_manifest(const std::vector<DemRaster>& rasters,
                          const std::vector<std::pair<int, int>>& schemas,
                          const PolygonSet& polygons,
                          const ClusterRunConfig& config) {
  ZH_REQUIRE(rasters.size() == schemas.size(),
             "one partition schema per raster required");
  RunManifest m;
  m.raster_fingerprint = fingerprint_rasters(rasters);
  m.zones_fingerprint = fingerprint_zones(polygons);
  m.config_fingerprint = fingerprint_config(schemas, config.zonal);
  // The driver's own partitioning, so journal indices and the driver's
  // partition list can never drift apart.
  std::uint64_t count = 0;
  for (std::size_t i = 0; i < rasters.size(); ++i) {
    count += grid_partition(rasters[i].rows(), rasters[i].cols(),
                            schemas[i].first, schemas[i].second,
                            config.zonal.tile_size)
                 .size();
  }
  ZH_REQUIRE(count <= std::numeric_limits<std::uint32_t>::max(),
             "partition count overflows the journal manifest");
  m.partition_count = static_cast<std::uint32_t>(count);
  m.groups = polygons.size();
  m.bins = config.zonal.bins;
  return m;
}

void require_manifest_match(const RunManifest& on_disk,
                            const RunManifest& expected,
                            const std::string& path) {
  const auto field = [&]() -> const char* {
    if (on_disk.raster_fingerprint != expected.raster_fingerprint) {
      return "raster fingerprint";
    }
    if (on_disk.zones_fingerprint != expected.zones_fingerprint) {
      return "zone-layer fingerprint";
    }
    if (on_disk.config_fingerprint != expected.config_fingerprint) {
      return "config fingerprint";
    }
    if (on_disk.partition_count != expected.partition_count) {
      return "partition count";
    }
    if (on_disk.groups != expected.groups) return "polygon count";
    if (on_disk.bins != expected.bins) return "bin count";
    return nullptr;
  }();
  ZH_REQUIRE_IO(field == nullptr, "journal ", path,
                " belongs to a different run: ", field,
                " mismatch -- resuming would merge incompatible histograms "
                "(delete the checkpoint directory to start over)");
}

}  // namespace zh
