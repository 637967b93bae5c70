// Checkpoint/resume through the supervised cluster driver
// (DESIGN.md 5d): a run interrupted after journaling any subset of its
// partitions resumes to a bit-identical result, skipping exactly the
// journaled work -- including across double interruptions with torn
// tails, the worst case the kill/resume harness produces.
#include <gtest/gtest.h>

#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <map>
#include <vector>

#include "core/baseline.hpp"
#include "core/cluster_driver.hpp"
#include "data/county_synth.hpp"
#include "data/dem_synth.hpp"
#include "io/journal.hpp"

namespace zh {
namespace {

/// Shared scenario, matching test_cluster_recovery: one 96x96 raster
/// split 2x2 (4 partitions), star-county zones across partition borders.
struct Scenario {
  std::vector<DemRaster> rasters;
  std::vector<std::pair<int, int>> schemas = {{2, 2}};
  PolygonSet zones;

  Scenario() {
    const DemParams dp{.seed = 17, .max_value = 59};
    rasters.push_back(
        generate_dem(96, 96, GeoTransform(0.0, 9.6, 0.1, 0.1), dp));
    CountyParams cp;
    cp.seed = 4;
    cp.grid_x = 4;
    cp.grid_y = 4;
    zones = generate_counties(GeoBox{-0.5, -0.5, 10.1, 10.1}, cp);
  }

  [[nodiscard]] ClusterRunConfig config(std::size_t ranks) const {
    ClusterRunConfig cfg;
    cfg.ranks = ranks;
    cfg.zonal = {.tile_size = 16, .bins = 60};
    return cfg;
  }

  [[nodiscard]] RunManifest manifest() const {
    return make_manifest(rasters, schemas, zones, config(1));
  }

  /// The per-cell oracle summed over the rasters: the bit-identity
  /// reference.
  [[nodiscard]] HistogramSet reference() const {
    HistogramSet expect(zones.size(), 60);
    for (const DemRaster& r : rasters) {
      expect.add(zonal_scanline(r, zones, 60));
    }
    return expect;
  }

  [[nodiscard]] ClusterRunResult run(ClusterRunConfig cfg,
                                     CheckpointSink* sink) const {
    cfg.checkpoint.sink = sink;
    return run_cluster_zonal(rasters, schemas, zones, cfg);
  }
};

class CheckpointResume : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("zh_resume_" + std::to_string(::getpid()));
    std::filesystem::create_directories(dir_);
    journal_ = (dir_ / "run.journal").string();
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::filesystem::path dir_;
  std::string journal_;
};

/// Forwards the first `cap` acceptances to the journal, then drops the
/// rest on the floor -- the durable state a process killed after `cap`
/// records would have left behind.
class InterruptedSink final : public CheckpointSink {
 public:
  InterruptedSink(JournalWriter* inner, std::uint64_t cap)
      : inner_(inner), cap_(cap) {}

  void on_partition_complete(std::uint32_t part_index,
                             std::span<const BinCount> bins) override {
    if (inner_->records_written() < cap_) {
      inner_->on_partition_complete(part_index, bins);
    }
  }

 private:
  JournalWriter* inner_;
  std::uint64_t cap_;
};

/// Half a frame of plausible bytes: what a kill mid-append leaves.
void append_torn_tail(const std::string& path) {
  std::ofstream os(path, std::ios::binary | std::ios::app);
  const char torn[] = {40, 0, 0, 0, 'd', 'e', 'a', 'd'};
  os.write(torn, sizeof(torn));
}

/// Resume configuration from whatever the journal holds.
ClusterRunConfig resume_config(const Scenario& sc, std::size_t ranks,
                               const JournalLoad& load) {
  ClusterRunConfig cfg = sc.config(ranks);
  cfg.checkpoint.completed_partitions = load.completed;
  cfg.checkpoint.resume_bins = load.merged_bins;
  return cfg;
}

TEST_F(CheckpointResume, FullRunJournalsEveryPartitionOnce) {
  const Scenario sc;
  JournalWriter w = JournalWriter::create(journal_, sc.manifest());
  const ClusterRunResult r = sc.run(sc.config(3), &w);
  EXPECT_EQ(r.merged, sc.reference());
  EXPECT_EQ(r.partitions_skipped, 0u);
  EXPECT_EQ(w.records_written(), 4u);

  const JournalLoad load = load_journal(journal_);
  EXPECT_EQ(load.records.size(), 4u);
  EXPECT_EQ(load.completed.size(), 4u);
  EXPECT_EQ(load.last_generation, 0u);
  // The journal alone reconstructs the full answer.
  HistogramSet from_journal(sc.zones.size(), 60);
  auto flat = from_journal.flat();
  std::copy(load.merged_bins.begin(), load.merged_bins.end(), flat.begin());
  EXPECT_EQ(from_journal, sc.reference());
}

TEST_F(CheckpointResume, ResumeAfterPartialJournalIsBitIdentical) {
  const Scenario sc;
  const HistogramSet expect = sc.reference();

  // Interrupted run: only 2 of 4 acceptances reach the journal.
  {
    JournalWriter w = JournalWriter::create(journal_, sc.manifest());
    InterruptedSink sink(&w, 2);
    (void)sc.run(sc.config(3), &sink);
    EXPECT_EQ(w.records_written(), 2u);
  }

  const JournalLoad load = load_journal(journal_);
  ASSERT_EQ(load.completed.size(), 2u);
  require_manifest_match(load.manifest, sc.manifest(), journal_);

  JournalWriter w = JournalWriter::append(journal_, load);
  EXPECT_EQ(w.generation(), 1u);
  const ClusterRunResult r = sc.run(resume_config(sc, 3, load), &w);

  EXPECT_EQ(r.merged, expect);
  EXPECT_EQ(r.partitions_skipped, 2u);
  EXPECT_EQ(w.records_written(), 2u);  // only the remainder journaled

  const JournalLoad final_load = load_journal(journal_);
  EXPECT_EQ(final_load.completed.size(), 4u);
  EXPECT_EQ(final_load.last_generation, 1u);
}

TEST_F(CheckpointResume, DoubleInterruptedResumeStaysExact) {
  // The soak harness's worst case: kill mid-journal, resume, kill the
  // resume mid-journal (torn tail both times), resume again. The final
  // answer must be bit-identical and no partition may be journaled
  // twice within any generation.
  const Scenario sc;
  const HistogramSet expect = sc.reference();

  {  // generation 0: one record durable, then killed mid-append
    JournalWriter w = JournalWriter::create(journal_, sc.manifest());
    InterruptedSink sink(&w, 1);
    (void)sc.run(sc.config(3), &sink);
  }
  append_torn_tail(journal_);

  {  // generation 1: resumes, lands one more record, killed again
    const JournalLoad load = load_journal(journal_);
    EXPECT_EQ(load.torn_bytes, 8u);
    ASSERT_EQ(load.completed.size(), 1u);
    JournalWriter w = JournalWriter::append(journal_, load);
    EXPECT_EQ(w.generation(), 1u);
    InterruptedSink sink(&w, 1);  // one record lands in this generation
    const ClusterRunResult r = sc.run(resume_config(sc, 3, load), &sink);
    EXPECT_EQ(r.partitions_skipped, 1u);
    EXPECT_EQ(r.merged, expect);  // the run itself still finishes exactly
  }
  append_torn_tail(journal_);

  // generation 2: final resume runs to completion.
  const JournalLoad load = load_journal(journal_);
  ASSERT_EQ(load.completed.size(), 2u);
  JournalWriter w = JournalWriter::append(journal_, load);
  EXPECT_EQ(w.generation(), 2u);
  const ClusterRunResult r = sc.run(resume_config(sc, 3, load), &w);
  EXPECT_EQ(r.merged, expect);
  EXPECT_EQ(r.partitions_skipped, 2u);

  // Journal postmortem: generations 0/1/2, each partition at most once
  // per generation and exactly once overall (the writer's dedup guard
  // plus the driver's skip list make re-journaling impossible).
  const JournalLoad final_load = load_journal(journal_);
  EXPECT_EQ(final_load.last_generation, 2u);
  EXPECT_EQ(final_load.completed.size(), 4u);
  std::map<std::uint32_t, int> per_part;
  std::map<std::uint32_t, std::map<std::uint32_t, int>> per_gen;
  for (const JournalRecordInfo& rec : final_load.records) {
    ++per_part[rec.part_index];
    ++per_gen[rec.generation][rec.part_index];
  }
  for (const auto& [part, count] : per_part) {
    EXPECT_EQ(count, 1) << "partition " << part << " journaled twice";
  }
  for (const auto& [gen, parts] : per_gen) {
    for (const auto& [part, count] : parts) {
      EXPECT_LE(count, 1) << "partition " << part << " twice in gen " << gen;
    }
  }

  // And the journal alone reconstructs the reference.
  HistogramSet from_journal(sc.zones.size(), 60);
  auto flat = from_journal.flat();
  std::copy(final_load.merged_bins.begin(), final_load.merged_bins.end(),
            flat.begin());
  EXPECT_EQ(from_journal, expect);
}

TEST_F(CheckpointResume, AllPartitionsResumedSkipsEveryDispatch) {
  const Scenario sc;
  {
    JournalWriter w = JournalWriter::create(journal_, sc.manifest());
    (void)sc.run(sc.config(3), &w);
  }
  const JournalLoad load = load_journal(journal_);
  ASSERT_EQ(load.completed.size(), 4u);
  // Nothing left to do: the run must terminate (not hang waiting for
  // work), skip everything, and still hand back the exact answer.
  const ClusterRunResult r =
      run_cluster_zonal(sc.rasters, sc.schemas, sc.zones,
                        resume_config(sc, 3, load));
  EXPECT_EQ(r.merged, sc.reference());
  EXPECT_EQ(r.partitions_skipped, 4u);
  EXPECT_TRUE(r.incomplete_partitions.empty());
}

TEST_F(CheckpointResume, SingleRankResumeWorks) {
  const Scenario sc;
  {
    JournalWriter w = JournalWriter::create(journal_, sc.manifest());
    InterruptedSink sink(&w, 3);
    (void)sc.run(sc.config(2), &sink);
  }
  const JournalLoad load = load_journal(journal_);
  const ClusterRunResult r = run_cluster_zonal(
      sc.rasters, sc.schemas, sc.zones, resume_config(sc, 1, load));
  EXPECT_EQ(r.merged, sc.reference());
  EXPECT_EQ(r.partitions_skipped, 3u);
}

TEST_F(CheckpointResume, ResumeSurvivesMessageFaultStorm) {
  const Scenario sc;
  {
    JournalWriter w = JournalWriter::create(journal_, sc.manifest());
    InterruptedSink sink(&w, 2);
    (void)sc.run(sc.config(3), &sink);
  }
  const JournalLoad load = load_journal(journal_);
  ClusterRunConfig cfg = resume_config(sc, 4, load);
  cfg.fault_tolerance.faults.seed = 9;
  cfg.fault_tolerance.faults.delay_prob = 0.5;
  cfg.fault_tolerance.faults.delay_ms = 3;
  JournalWriter w = JournalWriter::append(journal_, load);
  const ClusterRunResult r = sc.run(cfg, &w);
  EXPECT_EQ(r.merged, sc.reference());
  EXPECT_EQ(r.partitions_skipped, 2u);
}

TEST_F(CheckpointResume, ResumeStateIsValidated) {
  const Scenario sc;
  {
    ClusterRunConfig cfg = sc.config(2);
    cfg.checkpoint.completed_partitions = {9};  // 4 partitions exist
    cfg.checkpoint.resume_bins.assign(sc.zones.size() * 60, 0);
    EXPECT_THROW(
        (void)run_cluster_zonal(sc.rasters, sc.schemas, sc.zones, cfg),
        InvalidArgument);
  }
  {
    ClusterRunConfig cfg = sc.config(2);
    cfg.checkpoint.completed_partitions = {1, 1};  // duplicate
    cfg.checkpoint.resume_bins.assign(sc.zones.size() * 60, 0);
    EXPECT_THROW(
        (void)run_cluster_zonal(sc.rasters, sc.schemas, sc.zones, cfg),
        InvalidArgument);
  }
  {
    ClusterRunConfig cfg = sc.config(2);
    cfg.checkpoint.completed_partitions = {1};
    cfg.checkpoint.resume_bins.assign(7, 0);  // wrong histogram shape
    EXPECT_THROW(
        (void)run_cluster_zonal(sc.rasters, sc.schemas, sc.zones, cfg),
        InvalidArgument);
  }
}

TEST_F(CheckpointResume, ChangedInputsRefuseToResume) {
  const Scenario sc;
  {
    JournalWriter w = JournalWriter::create(journal_, sc.manifest());
    InterruptedSink sink(&w, 1);
    (void)sc.run(sc.config(2), &sink);
  }
  const JournalLoad load = load_journal(journal_);
  // Same zones, different raster: the manifest gate must refuse.
  Scenario other;
  other.rasters[0].at(10, 10) += 1;
  EXPECT_THROW(
      require_manifest_match(load.manifest, other.manifest(), journal_),
      IoError);
  // Different bin count: also refused.
  ClusterRunConfig cfg = sc.config(1);
  cfg.zonal.bins = 61;
  EXPECT_THROW(
      require_manifest_match(
          load.manifest,
          make_manifest(sc.rasters, sc.schemas, sc.zones, cfg), journal_),
      IoError);
}

}  // namespace
}  // namespace zh
