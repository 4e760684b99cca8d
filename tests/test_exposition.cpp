// Exposition pipeline tests: the JSON reader, the Prometheus text format
// details the scrape contract depends on, deterministic Snapshotter rate
// math, and an end-to-end scrape of a live ExpositionServer — both
// in-process and (when --sim=<path> is passed by CTest) against a real
// `ecfrm_sim --serve` child process.
#include <gtest/gtest.h>

#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "obs/exposition.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/request_trace.h"

namespace ecfrm::obs {
namespace {

std::string g_sim_path;  // set by --sim= in main below

// ------------------------------------------------------------- JSON reader

TEST(Json, ParsesScalarsAndStructures) {
    auto v = json::parse(R"({"a":1.5,"b":[true,null,"x\n\"y\""],"c":{"d":-2e3}})");
    ASSERT_TRUE(v.ok()) << v.error().message;
    EXPECT_DOUBLE_EQ(v->number_or("a", 0.0), 1.5);
    const json::Value* b = v->find("b");
    ASSERT_NE(b, nullptr);
    ASSERT_EQ(b->items().size(), 3u);
    EXPECT_TRUE(b->items()[0].as_bool());
    EXPECT_TRUE(b->items()[1].is_null());
    EXPECT_EQ(b->items()[2].as_string(), "x\n\"y\"");
    const json::Value* c = v->find("c");
    ASSERT_NE(c, nullptr);
    EXPECT_DOUBLE_EQ(c->number_or("d", 0.0), -2000.0);
}

TEST(Json, DecodesUnicodeEscapes) {
    auto v = json::parse(R"("Aé中😀")");
    ASSERT_TRUE(v.ok());
    EXPECT_EQ(v->as_string(), "A\xC3\xA9\xE4\xB8\xAD\xF0\x9F\x98\x80");
}

TEST(Json, RejectsMalformedDocuments) {
    for (const char* bad : {"{", "[1,]", "{\"a\":}", "tru", "1.2.3", "\"unterminated",
                            "{\"a\":1} trailing", ""}) {
        EXPECT_FALSE(json::parse(bad).ok()) << bad;
    }
}

TEST(Json, NdjsonRoundTripsRegistryExport) {
    MetricRegistry reg("t");
    reg.counter("a_total", {{"k", "v\"w"}}).add(7);
    reg.histogram("h_seconds").record(0.25);
    auto lines = json::parse_ndjson(reg.to_json());
    ASSERT_TRUE(lines.ok()) << lines.error().message;
    ASSERT_EQ(lines->size(), 2u);
    EXPECT_EQ((*lines)[0].string_or("name", ""), "a_total");
    EXPECT_DOUBLE_EQ((*lines)[0].number_or("value", 0.0), 7.0);
    const json::Value* labels = (*lines)[0].find("labels");
    ASSERT_NE(labels, nullptr);
    EXPECT_EQ(labels->string_or("k", ""), "v\"w");
    EXPECT_EQ((*lines)[1].string_or("type", ""), "histogram");
}

// ------------------------------------------------- Prometheus text details

TEST(Prometheus, HelpLineRendersBeforeType) {
    MetricRegistry reg("t");
    reg.describe("x_total", "What x counts\nsecond line");
    reg.counter("x_total").add(1);
    const std::string text = reg.to_prometheus();
    const auto help_pos = text.find("# HELP x_total What x counts\\nsecond line\n");
    const auto type_pos = text.find("# TYPE x_total counter\n");
    ASSERT_NE(help_pos, std::string::npos) << text;
    ASSERT_NE(type_pos, std::string::npos) << text;
    EXPECT_LT(help_pos, type_pos);
    EXPECT_EQ(reg.help("x_total"), "What x counts\nsecond line");
    EXPECT_EQ(reg.help("unknown"), "");
}

TEST(Prometheus, TypeHeaderEmittedOncePerFamily) {
    MetricRegistry reg("t");
    reg.counter("y_total", {{"d", "0"}}).add(1);
    reg.counter("y_total", {{"d", "1"}}).add(2);
    const std::string text = reg.to_prometheus();
    std::size_t count = 0;
    for (std::size_t pos = text.find("# TYPE y_total"); pos != std::string::npos;
         pos = text.find("# TYPE y_total", pos + 1)) {
        ++count;
    }
    EXPECT_EQ(count, 1u);
}

TEST(Prometheus, LabelValuesRoundTripThroughEscaping) {
    MetricRegistry reg("t");
    reg.counter("z_total", {{"path", "a\\b\"c\nd"}}).add(3);
    const std::string text = reg.to_prometheus();
    EXPECT_NE(text.find("z_total{path=\"a\\\\b\\\"c\\nd\"} 3"), std::string::npos) << text;
}

// ------------------------------------------------------------- Snapshotter

TEST(Snapshotter, ComputesExactRatesFromManualCaptures) {
    MetricRegistry reg("t");
    Counter& c = reg.counter("ops_total");
    Histogram& h = reg.histogram("lat_seconds");
    Gauge& g = reg.gauge("depth");

    Snapshotter snap(&reg);
    c.add(10);
    snap.capture(0.0);
    EXPECT_TRUE(snap.rates().empty());  // one capture: no delta yet

    c.add(30);
    h.record(0.1);
    h.record(0.2);
    g.set(5.0);
    snap.capture(2.0);

    const auto rates = snap.rates();
    ASSERT_EQ(rates.size(), 2u);  // gauge excluded
    EXPECT_EQ(rates[0].name, "ops_total");
    EXPECT_DOUBLE_EQ(rates[0].per_second, 15.0);  // 30 more over 2 s
    EXPECT_EQ(rates[1].name, "lat_seconds");
    EXPECT_DOUBLE_EQ(rates[1].per_second, 1.0);  // 2 records over 2 s
    EXPECT_EQ(snap.captures(), 2);
}

TEST(Snapshotter, NewMetricsRateFromZero) {
    MetricRegistry reg("t");
    Snapshotter snap(&reg);
    snap.capture(0.0);
    reg.counter("late_total").add(4);
    snap.capture(4.0);
    const auto rates = snap.rates();
    ASSERT_EQ(rates.size(), 1u);
    EXPECT_DOUBLE_EQ(rates[0].per_second, 1.0);
}

TEST(Snapshotter, NonAdvancingCaptureFoldsIntoCurrentWindow) {
    // A capture whose clock did not move past the newest one (coarse
    // clocks, clock steps) must fold into the current window — replacing
    // the latest totals over the same interval — instead of collapsing
    // the window to zero width and blowing up or zeroing the rates.
    MetricRegistry reg("t");
    Counter& c = reg.counter("ops_total");
    Snapshotter snap(&reg);
    c.add(10);
    snap.capture(0.0);
    c.add(20);
    snap.capture(2.0);
    ASSERT_EQ(snap.rates().size(), 1u);
    EXPECT_DOUBLE_EQ(snap.rates()[0].per_second, 10.0);  // 20 over [0, 2]

    c.add(20);
    snap.capture(2.0);  // same timestamp: fold, keep the [0, 2] window
    ASSERT_EQ(snap.rates().size(), 1u);
    EXPECT_DOUBLE_EQ(snap.rates()[0].per_second, 20.0);  // 40 over [0, 2]

    c.add(4);
    snap.capture(1.5);  // clock stepped backwards: same treatment
    ASSERT_EQ(snap.rates().size(), 1u);
    EXPECT_DOUBLE_EQ(snap.rates()[0].per_second, 22.0);  // 44 over [0, 2]

    // Once the clock advances again the window moves on normally.
    c.add(8);
    snap.capture(4.0);
    ASSERT_EQ(snap.rates().size(), 1u);
    EXPECT_DOUBLE_EQ(snap.rates()[0].per_second, 4.0);  // 8 over [2, 4]
}

// ------------------------------------------------------------- HTTP scrape

/// Minimal test client: one GET, read until close, return the full
/// response (headers + body).
std::string http_get(int port, const std::string& path) {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) return "";
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(static_cast<std::uint16_t>(port));
    if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0) {
        ::close(fd);
        return "";
    }
    const std::string req = "GET " + path + " HTTP/1.1\r\nHost: localhost\r\n\r\n";
    (void)!::send(fd, req.data(), req.size(), 0);
    std::string out;
    char buf[4096];
    for (;;) {
        const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
        if (n <= 0) break;
        out.append(buf, static_cast<std::size_t>(n));
    }
    ::close(fd);
    return out;
}

std::string body_of(const std::string& response) {
    const auto pos = response.find("\r\n\r\n");
    return pos == std::string::npos ? "" : response.substr(pos + 4);
}

TEST(ExpositionServer, ServesAllRoutesInProcess) {
    MetricRegistry reg("live");
    reg.describe("req_total", "requests");
    reg.counter("req_total", {{"path", "/x"}}).add(42);
    reg.histogram("lat_seconds").record(0.125);

    Snapshotter snap(&reg);
    snap.capture(0.0);
    reg.counter("req_total", {{"path", "/x"}}).add(8);
    snap.capture(1.0);

    ExpositionServer server(&reg, &snap);
    ASSERT_TRUE(server.start(0).ok());
    ASSERT_GT(server.port(), 0);

    const std::string health = http_get(server.port(), "/healthz");
    EXPECT_NE(health.find("200 OK"), std::string::npos);
    EXPECT_EQ(body_of(health), "ok\n");

    const std::string prom = http_get(server.port(), "/metrics");
    EXPECT_NE(prom.find("200 OK"), std::string::npos);
    EXPECT_NE(prom.find("# HELP req_total requests"), std::string::npos);
    EXPECT_NE(prom.find("req_total{path=\"/x\"} 50"), std::string::npos);
    EXPECT_NE(prom.find("lat_seconds_count"), std::string::npos);

    const std::string json_resp = http_get(server.port(), "/metrics.json");
    EXPECT_NE(json_resp.find("application/json"), std::string::npos);
    auto doc = json::parse(body_of(json_resp));
    ASSERT_TRUE(doc.ok()) << body_of(json_resp);
    EXPECT_EQ(doc->string_or("registry", ""), "live");
    const json::Value* metrics = doc->find("metrics");
    ASSERT_NE(metrics, nullptr);
    // req_total, lat_seconds, plus the server's own request counters.
    EXPECT_GE(metrics->items().size(), 2u);
    const json::Value* rates = doc->find("rates");
    ASSERT_NE(rates, nullptr);
    ASSERT_GE(rates->items().size(), 1u);
    EXPECT_DOUBLE_EQ(rates->items()[0].number_or("per_second", 0.0), 8.0);

    const std::string missing = http_get(server.port(), "/nope");
    EXPECT_NE(missing.find("404"), std::string::npos);

    // Scrapes count themselves.
    EXPECT_GE(reg.counter("ecfrm_obs_http_requests_total", {{"path", "/metrics"}}).value(), 1);

    // quitquitquit releases wait_for_quit.
    const std::string quit = http_get(server.port(), "/quitquitquit");
    EXPECT_EQ(body_of(quit), "bye\n");
    EXPECT_TRUE(server.wait_for_quit(5.0));
    server.stop();
    EXPECT_FALSE(server.running());
}

TEST(ExpositionServer, ServesForensicsRoutes) {
    MetricRegistry reg("f");
    ForensicsOptions opts;
    opts.slow_threshold_us = 1000.0;
    RequestForensics forensics(opts);
    auto fast = forensics.start_at(RequestClass::normal, 0.0);
    forensics.finish_at(fast, true, 300.0);
    auto slow = forensics.start_at(RequestClass::degraded, 0.0);
    slow->count_replan();
    forensics.finish_at(slow, true, 4000.0);

    ExpositionServer server(&reg, nullptr, &forensics);
    ASSERT_TRUE(server.start(0).ok());

    const std::string slo = http_get(server.port(), "/slo");
    EXPECT_NE(slo.find("200 OK"), std::string::npos);
    EXPECT_NE(slo.find("application/json"), std::string::npos);
    auto slo_doc = json::parse(body_of(slo));
    ASSERT_TRUE(slo_doc.ok()) << body_of(slo);
    EXPECT_EQ(slo_doc->string_or("schema", ""), "ecfrm.slo.v1");
    const json::Value* classes = slo_doc->find("classes");
    ASSERT_NE(classes, nullptr);
    ASSERT_EQ(classes->items().size(), 5u);  // normal / degraded / scrub / write / rebuild
    bool saw_degraded = false;
    for (const json::Value& cls : classes->items()) {
        if (cls.string_or("class", "") != "degraded") continue;
        saw_degraded = true;
        EXPECT_DOUBLE_EQ(cls.number_or("finished_total", 0.0), 1.0);
        EXPECT_GT(cls.number_or("p99_us", 0.0), 0.0);
    }
    EXPECT_TRUE(saw_degraded);

    const std::string slow_resp = http_get(server.port(), "/slow");
    auto slow_doc = json::parse(body_of(slow_resp));
    ASSERT_TRUE(slow_doc.ok()) << body_of(slow_resp);
    EXPECT_EQ(slow_doc->string_or("schema", ""), "ecfrm.slow.v1");

    const std::string ndjson = body_of(http_get(server.port(), "/slowlog"));
    EXPECT_NE(ndjson.find("\"tree\""), std::string::npos);

    // A captured request serves its chrome://tracing document; unknown
    // and uncaptured (fast, clean) ids answer 404.
    const std::string chrome =
        http_get(server.port(), "/requests/" + std::to_string(slow->id()));
    EXPECT_NE(chrome.find("200 OK"), std::string::npos);
    auto chrome_doc = json::parse(body_of(chrome));
    ASSERT_TRUE(chrome_doc.ok()) << body_of(chrome);
    EXPECT_TRUE(chrome_doc->is_array());
    EXPECT_NE(http_get(server.port(), "/requests/999999").find("404"), std::string::npos);
    EXPECT_NE(http_get(server.port(), "/requests/" + std::to_string(fast->id())).find("404"),
              std::string::npos);
    server.stop();

    // Without forensics attached the routes simply do not exist.
    ExpositionServer bare(&reg);
    ASSERT_TRUE(bare.start(0).ok());
    EXPECT_NE(http_get(bare.port(), "/slo").find("404"), std::string::npos);
    EXPECT_NE(http_get(bare.port(), "/slow").find("404"), std::string::npos);
    bare.stop();
}

TEST(ExpositionServer, RestartsAndRefusesDoubleStart) {
    MetricRegistry reg("r");
    ExpositionServer server(&reg);
    ASSERT_TRUE(server.start(0).ok());
    EXPECT_FALSE(server.start(0).ok());
    const int first_port = server.port();
    EXPECT_GT(first_port, 0);
    server.stop();
    ASSERT_TRUE(server.start(0).ok());
    EXPECT_NE(http_get(server.port(), "/healthz").find("ok"), std::string::npos);
    server.stop();
}

// -------------------------------------------- end-to-end against ecfrm_sim

TEST(ExpositionServer, ScrapesLiveSimProcess) {
    if (g_sim_path.empty()) GTEST_SKIP() << "pass --sim=<path-to-ecfrm_sim> to enable";

    const std::string cmd = g_sim_path + " rs:6,3 --layout ecfrm --trials 200"
                            " --serve 0 --serve-hold 20 2>&1";
    std::FILE* pipe = ::popen(cmd.c_str(), "r");
    ASSERT_NE(pipe, nullptr);

    // The sim prints (and flushes) its bound port before running, then the
    // "holding" line once the protocol — and so all metric registration —
    // has finished. Scraping after the latter is race-free.
    int port = 0;
    bool holding = false;
    char line[512];
    while (std::fgets(line, sizeof(line), pipe) != nullptr) {
        const char* at = std::strstr(line, "http://127.0.0.1:");
        if (at != nullptr) port = std::atoi(at + std::strlen("http://127.0.0.1:"));
        if (std::strstr(line, "holding for") != nullptr) {
            holding = true;
            break;
        }
    }
    ASSERT_GT(port, 0) << "sim never announced its port";
    ASSERT_TRUE(holding) << "sim never reached its serve-hold phase";

    const std::string prom = http_get(port, "/metrics");
    EXPECT_NE(prom.find("# TYPE ecfrm_planner_max_load summary"), std::string::npos);
    EXPECT_NE(prom.find("ecfrm_sim_disk_elements_total"), std::string::npos);

    const std::string json_body = body_of(http_get(port, "/metrics.json"));
    auto doc = json::parse(json_body);
    ASSERT_TRUE(doc.ok()) << json_body.substr(0, 200);
    EXPECT_EQ(doc->string_or("registry", ""), "ecfrm_sim");

    EXPECT_NE(body_of(http_get(port, "/quitquitquit")), "");
    while (std::fgets(line, sizeof(line), pipe) != nullptr) {
    }
    EXPECT_EQ(::pclose(pipe), 0);
}

}  // namespace
}  // namespace ecfrm::obs

int main(int argc, char** argv) {
    testing::InitGoogleTest(&argc, argv);
    for (int i = 1; i < argc; ++i) {
        if (std::strncmp(argv[i], "--sim=", 6) == 0) ecfrm::obs::g_sim_path = argv[i] + 6;
    }
    return RUN_ALL_TESTS();
}
