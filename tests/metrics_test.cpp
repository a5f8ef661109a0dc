#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "campaign/aggregate.hpp"
#include "metrics/bench_json.hpp"
#include "metrics/json.hpp"
#include "metrics/stats.hpp"
#include "metrics/table.hpp"

namespace gecko::metrics {
namespace {

TEST(BenchJsonTest, ReportLeadsWithSchemaVersion)
{
    BenchReport report;
    report.figure = "fig99";
    std::string json = report.toJson();
    // schema_version is the first key so even a truncated record
    // identifies its format.
    EXPECT_EQ(json.rfind("{\"schema_version\":9,", 0), 0u) << json;
    JsonValue root;
    ASSERT_TRUE(parseJson(json, &root)) << json;
    std::uint64_t u = 0;
    std::string s;
    EXPECT_TRUE(root.at("schema_version", &u));
    EXPECT_EQ(u, static_cast<std::uint64_t>(kBenchSchemaVersion));
    // Version-3/4 provenance keys are always present.
    EXPECT_TRUE(root.at("seed", &u));
    EXPECT_EQ(u, 0u);
    EXPECT_TRUE(root.at("defense_mode", &s));
    EXPECT_EQ(s, "static");
    EXPECT_TRUE(root.at("exec_backend", &s));
    EXPECT_EQ(s, "block");
    // The table spells the record and suite-total keys; pin them here
    // in wire order so a renamed row changes this test, not silently
    // the format.
    const std::vector<std::string> wantKeys = {
        "sim_cycles",         "quanta",      "sleep_quanta",
        "coalesced_quanta",   "fused_quanta", "corrupted_restores",
        "crc_rejects",        "retries_exhausted"};
    const std::vector<std::string> wantSuiteKeys = {
        "total_sim_cycles",   "total_quanta", "total_sleep_quanta",
        "total_coalesced_quanta", "total_fused_quanta",
        "corrupted_restores", "crc_rejects",  "retries_exhausted"};
    std::vector<std::string> keys, suiteKeys;
    for (const BenchCounterRow& row : kBenchCounters) {
        keys.push_back(row.key);
        suiteKeys.push_back(row.suiteKey);
    }
    EXPECT_EQ(keys, wantKeys);
    EXPECT_EQ(suiteKeys, wantSuiteKeys);
    // Every counter row is always present, zero or not: the version-8
    // sleeping quanta next to the running ones, the version-9 fused
    // quanta next to the coalesced ones.
    for (const BenchCounterRow& row : kBenchCounters) {
        EXPECT_TRUE(root.at(row.key, &u)) << row.key;
        EXPECT_EQ(u, 0u) << row.key;
    }
    report.counters.values[BenchCounters::kQuanta] = 7;
    report.counters.values[BenchCounters::kSleepQuanta] = 5;
    report.counters.values[BenchCounters::kFusedQuanta] = 3;
    ASSERT_TRUE(parseJson(report.toJson(), &root));
    for (const BenchCounterRow& row : kBenchCounters) {
        EXPECT_TRUE(root.at(row.key, &u)) << row.key;
        EXPECT_EQ(u, report.counters.values[row.counter]) << row.key;
    }
    EXPECT_TRUE(root.at("quanta", &u));
    EXPECT_EQ(u, 7u);
    EXPECT_TRUE(root.at("sleep_quanta", &u));
    EXPECT_EQ(u, 5u);
    EXPECT_TRUE(root.at("fused_quanta", &u));
    EXPECT_EQ(u, 3u);
    // trace_out only appears when a trace was written.
    EXPECT_EQ(json.find("trace_out"), std::string::npos);
    report.traceOut = "out/trace.jsonl";
    ASSERT_TRUE(parseJson(report.toJson(), &root));
    EXPECT_TRUE(root.at("trace_out", &s));
    EXPECT_EQ(s, "out/trace.jsonl");
    // figure_data (v6) only appears when the bench supplied one, and
    // is spliced in raw (it is already JSON).
    EXPECT_EQ(json.find("figure_data"), std::string::npos);
    report.figureData = "{\"cells\":[1,2]}";
    EXPECT_NE(report.toJson().find("\"figure_data\":{\"cells\":[1,2]}"),
              std::string::npos);
    ASSERT_TRUE(parseJson(report.toJson(), &root));
    EXPECT_NE(root.get("figure_data"), nullptr);
}

TEST(BenchJsonTest, EveryCounterRowRoundTripsThroughTheSuiteReader)
{
    // Distinct nonzero values per row: a row the writer or the reader
    // drops, or two rows sharing a slot, reads back wrong.
    BenchReport report;
    report.figure = "fig99";
    report.wallS = 2.0;
    for (std::size_t i = 0; i < BenchCounters::kCount; ++i)
        report.counters.values[i] = 1000 + 17 * i;
    const auto& want = report.counters.values;
    std::set<std::string> keys, suiteKeys;
    std::set<std::size_t> slots;
    for (const BenchCounterRow& row : kBenchCounters) {
        keys.insert(row.key);
        suiteKeys.insert(row.suiteKey);
        slots.insert(row.counter);
    }
    EXPECT_EQ(keys.size(), BenchCounters::kCount);
    EXPECT_EQ(suiteKeys.size(), BenchCounters::kCount);
    EXPECT_EQ(slots.size(), BenchCounters::kCount);

    // bench_all reads a child record as a one-line JSONL journal.
    const std::string path =
        ::testing::TempDir() + "/bench_counters_roundtrip.json";
    {
        std::ofstream out(path);
        out << report.toJson() << "\n";
    }
    BenchCounters read;
    EXPECT_EQ(readJsonl(path,
                        [&](const JsonValue& record) {
                            read.read(record);
                            return true;
                        }),
              0u);
    std::remove(path.c_str());
    for (const BenchCounterRow& row : kBenchCounters)
        EXPECT_EQ(read.values[row.counter], want[row.counter]) << row.key;

    // The derived rates come from their rows.
    JsonValue root;
    ASSERT_TRUE(parseJson(report.toJson(), &root));
    double rate = 0.0;
    EXPECT_TRUE(root.at("sim_cycles_per_s", &rate));
    EXPECT_DOUBLE_EQ(rate, want[BenchCounters::kSimCycles] / 2.0);
    EXPECT_TRUE(root.at("quanta_per_s", &rate));
    EXPECT_DOUBLE_EQ(rate, want[BenchCounters::kQuanta] / 2.0);

    // Suite totals: += sums per row, write() keys by the suite key.
    BenchCounters totals = read;
    totals += read;
    std::ostringstream os;
    os << "{\"suite\":1";
    totals.write(os, &BenchCounterRow::suiteKey);
    os << "}";
    ASSERT_TRUE(parseJson(os.str(), &root)) << os.str();
    std::uint64_t u = 0;
    for (const BenchCounterRow& row : kBenchCounters) {
        EXPECT_TRUE(root.at(row.suiteKey, &u)) << row.suiteKey;
        EXPECT_EQ(u, 2 * want[row.counter]) << row.suiteKey;
    }
}

TEST(BenchJsonTest, ReadersTolerateUnknownKeys)
{
    // A reader aggregating a newer record must skip keys it doesn't
    // know and still find the ones it does — the compatibility
    // bench_all relies on.
    const std::string futureRecord =
        "{\"schema_version\":4,\"figure\":\"fig04\","
        "\"novel_key\":{\"nested\":[1,2]},\"threads\":4,"
        "\"trace_out\":\"t.jsonl\",\"sim_cycles\":123,"
        "\"status\":\"pass\"}";
    JsonValue root;
    ASSERT_TRUE(parseJson(futureRecord, &root));
    std::uint64_t u = 0;
    std::string s;
    EXPECT_TRUE(root.at("sim_cycles", &u));
    EXPECT_EQ(u, 123u);
    EXPECT_TRUE(root.at("threads", &u));
    EXPECT_EQ(u, 4u);
    EXPECT_TRUE(root.at("status", &s));
    EXPECT_EQ(s, "pass");
    EXPECT_TRUE(root.at("schema_version", &u));
    EXPECT_EQ(u, 4u);
    // Unknown keys read as absent, not as garbage.
    EXPECT_EQ(root.get("wall_s"), nullptr);
}

TEST(JsonReaderTest, StrictParseAndExactLookups)
{
    struct Case {
        std::string text;
        bool parses;
        /// Top-level u64 member to look up ("" = none) and its reading.
        std::string key;
        bool found;
        std::uint64_t value;
    };
    campaign::JobResult result;
    result.job = 4;
    result.group = "sensor_loop/GECKO/tone";
    result.cycles = 123456;
    result.commits = 12;
    const std::string line = result.toJsonl();
    std::vector<Case> cases = {
        // u64s read back exactly, not through a double.
        {R"({"seed":18446744073709551615})", true, "seed", true,
         18446744073709551615ull},
        {R"({"seed":18446744073709551616})", true, "seed", false, 0},
        {R"({"seed":1.5})", true, "seed", false, 0},
        {R"({"seed":"7"})", true, "seed", false, 0},
        // A nested key is not a top-level one.
        {R"({"figure_data":{"quanta":5},"quanta":7})", true, "quanta",
         true, 7},
        {R"({"figure_data":{"quanta":5}})", true, "quanta", false, 0},
        // Duplicate keys and trailing characters are errors.
        {R"({"job":1,"job":2})", false, "", false, 0},
        {R"({"job":1} )", true, "job", true, 1},
        {R"({"job":1}x)", false, "", false, 0},
        {R"({"job":3,"group":"sensor{"job":3}})", false, "", false, 0},
        // jsonEscape's \u00XX control-character escapes read back.
        {R"({"job":3,"note":"a\u0001b"})", true, "job", true, 3},
        {line, true, "commits", true, 12},
    };
    // Every proper prefix of a real results.jsonl record is torn.
    for (std::size_t n = 0; n < line.size(); ++n)
        cases.push_back({line.substr(0, n), false, "", false, 0});

    for (const Case& c : cases) {
        SCOPED_TRACE(c.text);
        JsonValue root;
        EXPECT_EQ(parseJson(c.text, &root), c.parses);
        if (!c.parses) {
            EXPECT_FALSE(campaign::JobResult::fromJsonl(c.text));
            continue;
        }
        std::uint64_t v = 0;
        if (!c.key.empty()) {
            EXPECT_EQ(root.at(c.key, &v), c.found);
            EXPECT_EQ(v, c.value);
        }
    }
    auto back = campaign::JobResult::fromJsonl(line);
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(back->toJsonl(), line);
}

TEST(StatsTest, Means)
{
    EXPECT_DOUBLE_EQ(mean({1, 2, 3}), 2.0);
    EXPECT_DOUBLE_EQ(mean({}), 0.0);
    EXPECT_NEAR(geomean({1, 4}), 2.0, 1e-12);
    EXPECT_NEAR(geomean({2, 2, 2}), 2.0, 1e-12);
    EXPECT_DOUBLE_EQ(minimum({3, 1, 2}), 1.0);
    EXPECT_DOUBLE_EQ(maximum({3, 1, 2}), 3.0);
}

TEST(StatsTest, SeriesArgExtrema)
{
    Series s{"t", {1, 2, 3, 4}, {5.0, 1.0, 9.0, 2.0}};
    EXPECT_EQ(argminY(s), 1u);
    EXPECT_EQ(argmaxY(s), 2u);
}

TEST(TableTest, AlignsColumns)
{
    TextTable t;
    t.header({"name", "value"});
    t.row({"x", "1"});
    t.row({"longer", "22"});
    std::ostringstream os;
    t.print(os);
    std::string out = os.str();
    EXPECT_NE(out.find("name"), std::string::npos);
    EXPECT_NE(out.find("longer"), std::string::npos);
    // Header separator present.
    EXPECT_NE(out.find("---"), std::string::npos);
    // All rows share the same width up to the second column.
    auto col = out.find("value");
    auto row1 = out.find("1", out.find("x"));
    EXPECT_NE(col, std::string::npos);
    EXPECT_NE(row1, std::string::npos);
}

TEST(TableTest, Formatters)
{
    EXPECT_EQ(fmt(3.14159, 2), "3.14");
    EXPECT_EQ(fmtPercent(0.413, 1), "41.3%");
    EXPECT_EQ(fmtMhz(27e6), "27 MHz");
    EXPECT_EQ(fmtMhz(16.5e6, 1), "16.5 MHz");
}

}  // namespace
}  // namespace gecko::metrics
