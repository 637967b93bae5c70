// Locale independence of every text format (regression).
//
// Number parsing used std::strtod, which honors LC_NUMERIC, and the
// stream-based readers/writers picked up whatever global locale the
// embedding process had installed: a comma-decimal locale (de_DE shape)
// truncated "1.5" to 1 when parsing and emitted "1,5" / "1.234"
// (grouping) when writing, silently corrupting coordinates, rasters and
// CSVs. The fixes: std::from_chars in the parsers (locale-independent
// by definition), imbue(std::locale::classic()) on every numeric
// stream, and std::to_chars in the JSON report writer.
//
// The container may ship no de_DE locale pack, so the C++-stream paths
// are exercised with a hand-built comma numpunct facet installed as the
// global locale (always available); the C-library paths (strtod's
// LC_NUMERIC) are additionally exercised under a real comma-decimal
// setlocale when the OS provides one, and skipped otherwise.
#include <gtest/gtest.h>

#include <unistd.h>

#include <clocale>
#include <filesystem>
#include <fstream>
#include <locale>
#include <sstream>
#include <string>

#include "geom/wkt.hpp"
#include "io/ascii_grid.hpp"
#include "io/histogram_io.hpp"
#include "obs/json.hpp"
#include "obs/report.hpp"
#include "test_util.hpp"

namespace zh {
namespace {

/// The de_DE number shape without needing an OS locale pack: comma
/// decimal point, dot thousands separator, groups of three.
struct CommaPunct : std::numpunct<char> {
  char do_decimal_point() const override { return ','; }
  char do_thousands_sep() const override { return '.'; }
  std::string do_grouping() const override { return "\3"; }
};

/// Install the comma facet as the global C++ locale for one scope.
/// The locale is nameless, so std::locale::global does NOT touch the
/// C library's setlocale state.
class CommaLocaleScope {
 public:
  CommaLocaleScope()
      : prev_(std::locale::global(
            std::locale(std::locale::classic(), new CommaPunct))) {}
  ~CommaLocaleScope() { std::locale::global(prev_); }

  CommaLocaleScope(const CommaLocaleScope&) = delete;
  CommaLocaleScope& operator=(const CommaLocaleScope&) = delete;

 private:
  std::locale prev_;
};

/// Try to install a real comma-decimal C locale (LC_NUMERIC). Returns
/// the locale name on success, empty if the OS has none installed.
std::string try_comma_c_locale() {
  for (const char* cand :
       {"de_DE.UTF-8", "de_DE.utf8", "de_DE", "fr_FR.UTF-8", "fr_FR.utf8"}) {
    if (std::setlocale(LC_NUMERIC, cand) != nullptr) return cand;
  }
  return {};
}

class LocaleTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("zh_locale_test_" + std::to_string(::getpid()));
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override {
    std::setlocale(LC_NUMERIC, "C");
    std::filesystem::remove_all(dir_);
  }

  [[nodiscard]] std::string path(const std::string& name) const {
    return (dir_ / name).string();
  }

  [[nodiscard]] static std::string slurp(const std::string& p) {
    std::ifstream is(p, std::ios::binary);
    std::ostringstream buf;
    buf << is.rdbuf();
    return buf.str();
  }

  std::filesystem::path dir_;
};

DemRaster fractional_raster() {
  // Fractional cell size and origin so every header double has a
  // decimal point; >=1000 cols would exercise integer grouping too but
  // keep the raster small and push grouping through the CSV tests.
  DemRaster r = test::random_raster(13, 17, 0, 4000,
                                    GeoTransform(-101.125, 42.5, 0.125, 0.125));
  r.set_nodata(CellValue{65535});
  return r;
}

TEST_F(LocaleTest, AsciiGridWrittenUnderCommaLocaleIsCanonical) {
  const DemRaster r = fractional_raster();
  write_ascii_grid(path("classic.asc"), r);
  {
    CommaLocaleScope comma;
    write_ascii_grid(path("comma.asc"), r);
  }
  // Byte-identical: the file format owns its locale, not the process.
  EXPECT_EQ(slurp(path("comma.asc")), slurp(path("classic.asc")));
}

TEST_F(LocaleTest, AsciiGridReadsClassicFileUnderCommaLocale) {
  const DemRaster r = fractional_raster();
  write_ascii_grid(path("a.asc"), r);
  CommaLocaleScope comma;
  const DemRaster back = read_ascii_grid(path("a.asc"));
  EXPECT_EQ(back, r);
}

TEST_F(LocaleTest, HistogramCsvSurvivesGroupingLocale) {
  // Counts above 1000: a grouping locale would write "1.234" and the
  // reader would stop at the separator.
  HistogramSet h(2, 3);
  h.row(0)[1] = 1234567;
  h.row(1)[2] = 1000;
  CommaLocaleScope comma;
  write_histogram_csv(path("h.csv"), h);
  const HistogramSet back = read_histogram_csv(path("h.csv"), 2, 3);
  EXPECT_EQ(back, h);
}

TEST_F(LocaleTest, WktRoundTripsUnderCommaLocale) {
  const Polygon poly({{{0.5, 0.5}, {9.25, 0.75}, {4.125, 8.625}}});
  const std::string classic_wkt = to_wkt(poly);
  CommaLocaleScope comma;
  EXPECT_EQ(to_wkt(poly), classic_wkt);
  const Polygon back = parse_wkt(classic_wkt);
  ASSERT_EQ(back.rings().size(), 1u);
  EXPECT_EQ(back.rings()[0][1].x, 9.25);
  EXPECT_EQ(back.rings()[0][2].y, 8.625);
}

TEST_F(LocaleTest, ObsJsonParsesAndEmitsUnderCommaLocale) {
  CommaLocaleScope comma;
  const obs::JsonValue v = obs::parse_json(R"({"t": 1.5, "n": -0.125})");
  ASSERT_NE(v.find("t"), nullptr);
  EXPECT_EQ(v.find("t")->number, 1.5);
  EXPECT_EQ(v.find("n")->number, -0.125);

  obs::RunReport report;
  report.tool = "test_locale";
  report.workload = "locale";
  report.has_times = true;
  report.times.seconds[1] = 0.125;
  const std::string json = obs::report_json(report);
  EXPECT_NE(json.find("0.125"), std::string::npos)
      << "step1 wall time not emitted in C-locale form: " << json;
  const obs::JsonValue parsed = obs::parse_json(json);
  const obs::JsonValue* times = parsed.find("times_s");
  ASSERT_NE(times, nullptr);
  ASSERT_NE(times->find("step1"), nullptr);
  EXPECT_EQ(times->find("step1")->number, 0.125);
}

TEST_F(LocaleTest, CLibraryPathsUnderRealCommaLocaleIfAvailable) {
  const std::string name = try_comma_c_locale();
  if (name.empty()) {
    GTEST_SKIP() << "no comma-decimal OS locale installed; from_chars "
                    "paths are locale-free by construction";
  }
  // LC_NUMERIC is now comma-decimal: pre-fix strtod call sites would
  // stop at '.' and truncate.
  const Polygon back = parse_wkt("POLYGON ((0.5 0.5, 9.25 0.75, 4.125 8.625, 0.5 0.5))");
  EXPECT_EQ(back.rings()[0][1].x, 9.25);
  const obs::JsonValue v = obs::parse_json("[1.5]");
  EXPECT_EQ(v.arr.at(0).number, 1.5);
}

}  // namespace
}  // namespace zh
