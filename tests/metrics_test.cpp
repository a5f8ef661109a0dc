#include <gtest/gtest.h>

#include <sstream>

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
    // Version-8 sleeping-quanta counter sits next to the running one.
    report.quanta = 7;
    report.sleepQuanta = 5;
    ASSERT_TRUE(parseJson(report.toJson(), &root));
    EXPECT_TRUE(root.at("quanta", &u));
    EXPECT_EQ(u, 7u);
    EXPECT_TRUE(root.at("sleep_quanta", &u));
    EXPECT_EQ(u, 5u);
    // Version-9 fused-kernel counter sits next to the coalesced one.
    report.fusedQuanta = 3;
    ASSERT_TRUE(parseJson(report.toJson(), &root));
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
