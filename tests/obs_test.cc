#include <gtest/gtest.h>

#include <atomic>
#include <cctype>
#include <cmath>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "cluster/gmm.h"
#include "common/check.h"
#include "common/logging.h"
#include "common/rng.h"
#include "la/matrix.h"
#include "obs/json_writer.h"
#include "obs/metrics.h"
#include "obs/run_report.h"
#include "obs/trace.h"
#include "obs/training_observer.h"
#include "subspace/trainer.h"
#include "subspace/twin_network.h"

namespace subrec::obs {
namespace {

/// Minimal recursive-descent JSON checker — strict enough to catch comma,
/// quoting, and nesting mistakes in our writer without a third-party parser.
class JsonChecker {
 public:
  explicit JsonChecker(std::string_view text) : text_(text) {}

  bool Valid() {
    SkipWs();
    if (!ParseValue()) return false;
    SkipWs();
    return pos_ == text_.size();
  }

 private:
  void SkipWs() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\n' ||
            text_[pos_] == '\r' || text_[pos_] == '\t'))
      ++pos_;
  }

  bool Consume(char c) {
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  bool ParseValue() {
    SkipWs();
    if (pos_ >= text_.size()) return false;
    switch (text_[pos_]) {
      case '{':
        return ParseObject();
      case '[':
        return ParseArray();
      case '"':
        return ParseString();
      case 't':
        return ParseLiteral("true");
      case 'f':
        return ParseLiteral("false");
      case 'n':
        return ParseLiteral("null");
      default:
        return ParseNumber();
    }
  }

  bool ParseLiteral(std::string_view lit) {
    if (text_.substr(pos_, lit.size()) != lit) return false;
    pos_ += lit.size();
    return true;
  }

  bool ParseObject() {
    if (!Consume('{')) return false;
    SkipWs();
    if (Consume('}')) return true;
    while (true) {
      SkipWs();
      if (!ParseString()) return false;
      SkipWs();
      if (!Consume(':')) return false;
      if (!ParseValue()) return false;
      SkipWs();
      if (Consume(',')) continue;
      return Consume('}');
    }
  }

  bool ParseArray() {
    if (!Consume('[')) return false;
    SkipWs();
    if (Consume(']')) return true;
    while (true) {
      if (!ParseValue()) return false;
      SkipWs();
      if (Consume(',')) continue;
      return Consume(']');
    }
  }

  bool ParseString() {
    if (!Consume('"')) return false;
    while (pos_ < text_.size()) {
      const char c = text_[pos_++];
      if (c == '"') return true;
      if (c == '\\') {
        if (pos_ >= text_.size()) return false;
        const char e = text_[pos_++];
        if (e == 'u') {
          for (int i = 0; i < 4; ++i) {
            if (pos_ >= text_.size() ||
                !std::isxdigit(static_cast<unsigned char>(text_[pos_])))
              return false;
            ++pos_;
          }
        } else if (std::string_view("\"\\/bfnrt").find(e) ==
                   std::string_view::npos) {
          return false;
        }
      } else if (static_cast<unsigned char>(c) < 0x20) {
        return false;  // raw control characters must be escaped
      }
    }
    return false;
  }

  bool ParseNumber() {
    Consume('-');
    bool digits = false;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '+' || text_[pos_] == '-')) {
      if (std::isdigit(static_cast<unsigned char>(text_[pos_]))) digits = true;
      ++pos_;
    }
    return digits;
  }

  std::string_view text_;
  size_t pos_ = 0;
};

TEST(JsonWriter, ExactObjectOutput) {
  JsonWriter w;
  w.BeginObject();
  w.Key("name").String("gmm");
  w.Key("iters").Int(12);
  w.Key("loss").Number(0.5);
  w.Key("ok").Bool(true);
  w.Key("next").Null();
  w.EndObject();
  EXPECT_EQ(w.str(),
            "{\"name\":\"gmm\",\"iters\":12,\"loss\":0.5,\"ok\":true,"
            "\"next\":null}");
}

TEST(JsonWriter, NestedArraysAndObjects) {
  JsonWriter w;
  w.BeginObject();
  w.Key("rows").BeginArray();
  w.BeginObject().Key("k").Int(1).EndObject();
  w.BeginObject().Key("k").Int(2).EndObject();
  w.EndArray();
  w.Key("empty").BeginArray().EndArray();
  w.EndObject();
  const std::string out = w.str();
  EXPECT_EQ(out, "{\"rows\":[{\"k\":1},{\"k\":2}],\"empty\":[]}");
  EXPECT_TRUE(JsonChecker(out).Valid());
}

TEST(JsonWriter, EscapesStringsAndNonFiniteNumbers) {
  JsonWriter w;
  w.BeginObject();
  w.Key("s").String("a\"b\\c\nd\te\x01"
                    "f");
  w.Key("inf").Number(std::numeric_limits<double>::infinity());
  w.Key("nan").Number(std::numeric_limits<double>::quiet_NaN());
  w.EndObject();
  const std::string out = w.str();
  EXPECT_NE(out.find("a\\\"b\\\\c\\nd\\te\\u0001f"), std::string::npos);
  EXPECT_NE(out.find("\"inf\":null"), std::string::npos);
  EXPECT_NE(out.find("\"nan\":null"), std::string::npos);
  EXPECT_TRUE(JsonChecker(out).Valid());
}

TEST(JsonWriter, EscapesEveryControlCharacter) {
  // Exposition output must stay valid JSON for any metric/trace content:
  // all 32 C0 control characters need escaping, either as their short
  // forms (\b \f \n \r \t) or as \u00XX.
  for (int c = 1; c < 0x20; ++c) {
    JsonWriter w;
    const char raw[2] = {static_cast<char>(c), '\0'};
    w.BeginObject().Key("k").String(std::string_view(raw, 1)).EndObject();
    const std::string out = w.str();
    EXPECT_TRUE(JsonChecker(out).Valid()) << "control char " << c << ": "
                                          << out;
    // The raw control byte itself must never appear in the output.
    EXPECT_EQ(out.find(static_cast<char>(c)), std::string::npos)
        << "control char " << c << " leaked unescaped";
  }
  JsonWriter w;
  w.BeginObject();
  w.Key("bell").String("\x07");
  w.Key("esc").String("\x1b[0m");
  w.Key("unit_sep").String("\x1f");
  w.EndObject();
  const std::string out = w.str();
  EXPECT_NE(out.find("\\u0007"), std::string::npos);
  EXPECT_NE(out.find("\\u001b[0m"), std::string::npos);
  EXPECT_NE(out.find("\\u001f"), std::string::npos);
  EXPECT_TRUE(JsonChecker(out).Valid()) << out;
}

TEST(JsonWriter, EscapesQuoteAndBackslashRuns) {
  JsonWriter w;
  w.BeginObject();
  w.Key("path").String("C:\\dir\\\\file");     // backslash and double run
  w.Key("quoted").String("\"\"");              // adjacent quotes
  w.Key("mixed").String("\\\"");               // backslash then quote
  w.Key("key\"with\\both").String("v");        // keys escape too
  w.EndObject();
  const std::string out = w.str();
  EXPECT_NE(out.find("\"path\":\"C:\\\\dir\\\\\\\\file\""),
            std::string::npos);
  EXPECT_NE(out.find("\"quoted\":\"\\\"\\\"\""), std::string::npos);
  EXPECT_NE(out.find("\"mixed\":\"\\\\\\\"\""), std::string::npos);
  EXPECT_NE(out.find("\"key\\\"with\\\\both\""), std::string::npos);
  EXPECT_TRUE(JsonChecker(out).Valid()) << out;
}

TEST(JsonWriter, PassesUtf8MultibyteSequencesThrough) {
  // RFC 8259 only requires escaping of '"', '\\', and control characters;
  // multibyte UTF-8 (NUL-free) passes through byte-for-byte. The bytes
  // below spell out 2-, 3-, and 4-byte sequences explicitly so the source
  // file stays ASCII.
  const std::string two_byte = "\xc3\xa9";          // e-acute
  const std::string three_byte = "\xe4\xb8\xad";    // CJK ideograph
  const std::string four_byte = "\xf0\x9f\x93\x88"; // chart emoji
  JsonWriter w;
  w.BeginObject();
  w.Key("mix").String(two_byte + "=" + three_byte + four_byte);
  w.EndObject();
  const std::string out = w.str();
  EXPECT_NE(out.find(two_byte + "=" + three_byte + four_byte),
            std::string::npos);
  // No byte of a multibyte sequence may be \u-escaped or dropped.
  EXPECT_EQ(out.find("\\u00c3"), std::string::npos);
  EXPECT_EQ(out.find("\\u00e4"), std::string::npos);
  EXPECT_TRUE(JsonChecker(out).Valid()) << out;
}

TEST(Histogram, BucketEdgesAreInclusiveUpperBounds) {
  Histogram h({1.0, 2.0});
  h.Observe(0.5);  // <= 1.0 -> bucket 0
  h.Observe(1.0);  // boundary lands in bucket 0 (v <= bound)
  h.Observe(1.5);  // bucket 1
  h.Observe(2.0);  // boundary -> bucket 1
  h.Observe(2.5);  // overflow
  const std::vector<int64_t> buckets = h.bucket_counts();
  ASSERT_EQ(buckets.size(), 3u);
  EXPECT_EQ(buckets[0], 2);
  EXPECT_EQ(buckets[1], 2);
  EXPECT_EQ(buckets[2], 1);
  EXPECT_EQ(h.count(), 5);
  EXPECT_NEAR(h.sum(), 7.5, 1e-12);
  h.Reset();
  EXPECT_EQ(h.count(), 0);
  EXPECT_EQ(h.bucket_counts()[0], 0);
}

TEST(MetricsRegistry, SameNameReturnsSameInstrument) {
  MetricsRegistry& reg = MetricsRegistry::Global();
  Counter* a = reg.GetCounter("obs_test.same_name");
  Counter* b = reg.GetCounter("obs_test.same_name");
  EXPECT_EQ(a, b);
  // The contract: a histogram name owns its bounds, so every re-lookup
  // passes the bounds of the first registration.
  Histogram* h1 = reg.GetHistogram("obs_test.same_hist", {1.0, 2.0});
  Histogram* h2 = reg.GetHistogram("obs_test.same_hist", {1.0, 2.0});
  EXPECT_EQ(h1, h2);
  ASSERT_EQ(h1->bounds().size(), 2u);
  EXPECT_EQ(h1->bounds()[0], 1.0);
}

#if SUBREC_DCHECK_IS_ON
TEST(MetricsRegistryDeathTest, MismatchedHistogramBoundsAreAProgrammingError) {
  MetricsRegistry& reg = MetricsRegistry::Global();
  reg.GetHistogram("obs_test.bounds_clash", {1.0, 2.0});
  // Same name, different bounds: the second call site's observations would
  // silently land in the first one's buckets, so it must die loudly.
  EXPECT_DEATH(reg.GetHistogram("obs_test.bounds_clash", {9.0}),
               "bounds differ from the first registration");
  // Identical bounds stay fine.
  EXPECT_NE(reg.GetHistogram("obs_test.bounds_clash", {1.0, 2.0}), nullptr);
}
#endif  // SUBREC_DCHECK_IS_ON

TEST(MetricsRegistry, SnapshotAndResetKeepPointersValid) {
  MetricsRegistry& reg = MetricsRegistry::Global();
  Counter* c = reg.GetCounter("obs_test.snapshot.counter");
  Gauge* g = reg.GetGauge("obs_test.snapshot.gauge");
  Histogram* h = reg.GetHistogram("obs_test.snapshot.hist", {10.0});
  c->Increment(3);
  g->Set(2.5);
  h->Observe(4.0);

  const MetricsSnapshot snap = reg.Snapshot();
  EXPECT_EQ(snap.counters.at("obs_test.snapshot.counter"), 3);
  EXPECT_NEAR(snap.gauges.at("obs_test.snapshot.gauge"), 2.5, 1e-12);
  EXPECT_EQ(snap.histograms.at("obs_test.snapshot.hist").count, 1);

  reg.Reset();
  EXPECT_EQ(c->value(), 0);
  EXPECT_EQ(g->value(), 0.0);
  EXPECT_EQ(h->count(), 0);
  // The snapshot is detached and unaffected by the reset.
  EXPECT_EQ(snap.counters.at("obs_test.snapshot.counter"), 3);
  // The instruments are still registered and usable.
  c->Increment();
  EXPECT_EQ(reg.Snapshot().counters.at("obs_test.snapshot.counter"), 1);
}

TEST(MetricsSnapshot, WritesValidJson) {
  MetricsRegistry& reg = MetricsRegistry::Global();
  reg.GetCounter("obs_test.json.counter")->Increment(7);
  reg.GetHistogram("obs_test.json.hist", {1.0})->Observe(0.5);
  JsonWriter w;
  reg.Snapshot().WriteJson(&w);
  const std::string out = w.str();
  EXPECT_TRUE(JsonChecker(out).Valid()) << out;
  EXPECT_NE(out.find("\"obs_test.json.counter\":7"), std::string::npos);
}

TEST(TraceRecorder, DisabledRecordsNothing) {
  TraceRecorder& rec = TraceRecorder::Global();
  rec.Disable();
  {
    SUBREC_TRACE_SPAN("obs_test/ignored");
  }
  EXPECT_TRUE(rec.Events().empty());
}

TEST(TraceRecorder, DisabledFastPathLeavesRecorderUntouched) {
  // The disabled fast path is ONE relaxed load of the enabled flag:
  // TraceSpan and Record must check enabled() before touching any guarded
  // state, so a burst of spans leaves the recorder bit-for-bit unchanged —
  // no events, no drop counting, no lock traffic for TSan to flag.
  TraceRecorder& rec = TraceRecorder::Global();
  rec.Disable();
  for (int i = 0; i < 1000; ++i) {
    SUBREC_TRACE_SPAN("obs_test/disabled_burst");
    rec.Record("obs_test/disabled_direct", i, 1);
  }
  int64_t dropped = -1;
  EXPECT_TRUE(rec.Events(&dropped).empty());
  EXPECT_EQ(dropped, 0);
  EXPECT_FALSE(rec.enabled());
}

TEST(TraceRecorder, NestedSpansRecordInnerFirst) {
  TraceRecorder& rec = TraceRecorder::Global();
  rec.Enable(64);
  {
    SUBREC_TRACE_SPAN("obs_test/outer");
    {
      SUBREC_TRACE_SPAN("obs_test/inner");
    }
  }
  const std::vector<TraceEvent> events = rec.Events();
  rec.Disable();
  ASSERT_EQ(events.size(), 2u);
  // Inner scope closes first, so it is recorded first.
  EXPECT_STREQ(events[0].name, "obs_test/inner");
  EXPECT_STREQ(events[1].name, "obs_test/outer");
  // The outer span encloses the inner one in time.
  EXPECT_LE(events[1].start_ns, events[0].start_ns);
  EXPECT_GE(events[1].duration_ns, events[0].duration_ns);
}

TEST(TraceRecorder, RingKeepsNewestAndCountsDropped) {
  TraceRecorder& rec = TraceRecorder::Global();
  rec.Enable(4);
  for (int i = 0; i < 6; ++i) rec.Record("obs_test/spin", i, 1);
  int64_t dropped = 0;
  const std::vector<TraceEvent> events = rec.Events(&dropped);
  rec.Disable();
  ASSERT_EQ(events.size(), 4u);
  EXPECT_EQ(dropped, 2);
  // Oldest-first unwrap: the two earliest starts were overwritten.
  EXPECT_EQ(events.front().start_ns, 2);
  EXPECT_EQ(events.back().start_ns, 5);
}

TEST(TraceRecorder, OverwritesFeedDroppedCounterAndRunReport) {
  // Ring overwrites are silent data loss; they must be visible three ways:
  // the DroppedSpans accessor, the obs.trace.dropped registry counter, and
  // the spans_dropped field of any report that captures spans.
  Counter* const dropped_counter =
      MetricsRegistry::Global().GetCounter("obs.trace.dropped");
  const int64_t before = dropped_counter->value();

  TraceRecorder& rec = TraceRecorder::Global();
  rec.Enable(4);
  EXPECT_EQ(rec.DroppedSpans(), 0);
  for (int i = 0; i < 10; ++i) rec.Record("obs_test/drop_count", i, 1);
  EXPECT_EQ(rec.DroppedSpans(), 6);
  EXPECT_EQ(dropped_counter->value() - before, 6);

  RunReport report("obs_test_dropped");
  report.CaptureSpans();
  rec.Disable();
  const std::string json = report.ToJson();
  EXPECT_TRUE(JsonChecker(json).Valid()) << json;
  EXPECT_NE(json.find("\"spans_dropped\":6"), std::string::npos) << json;
  rec.Clear();
}

TEST(TraceRecorder, TotalsCoverSpansOverwrittenInTheRing) {
  // A long traced run wraps the ring many times over; the per-name totals
  // must still count every span since Enable, not only the ring's tail.
  TraceRecorder& rec = TraceRecorder::Global();
  rec.Enable(4);
  for (int i = 0; i < 10; ++i) rec.Record("obs_test/totals_a", i, 2);
  for (int i = 0; i < 10; ++i) rec.Record("obs_test/totals_b", 10 + i, 3);
  const std::vector<SpanTotal> totals = rec.AggregateTotals();
  const std::vector<TraceEvent> events = rec.Events();
  rec.Disable();

  ASSERT_EQ(totals.size(), 2u);
  // Sorted by descending total time: B (10 x 3 ns) before A (10 x 2 ns).
  EXPECT_EQ(totals[0].name, "obs_test/totals_b");
  EXPECT_EQ(totals[0].count, 10);
  EXPECT_EQ(totals[0].total_ns, 30);
  EXPECT_EQ(totals[1].name, "obs_test/totals_a");
  EXPECT_EQ(totals[1].count, 10);
  EXPECT_EQ(totals[1].total_ns, 20);
  // The ring itself still keeps only the newest four spans.
  EXPECT_EQ(events.size(), 4u);

  // Clear starts a fresh window for the totals as well.
  rec.Enable(4);
  rec.Record("obs_test/totals_a", 0, 1);
  rec.Clear();
  EXPECT_TRUE(rec.AggregateTotals().empty());
  rec.Disable();
}

TEST(TraceRecorder, GmmFitProducesValidChromeTrace) {
  TraceRecorder& rec = TraceRecorder::Global();
  rec.Enable();
  Rng rng(4);
  la::Matrix data(60, 4);
  for (size_t i = 0; i < data.size(); ++i) data[i] = rng.Gaussian();
  cluster::GaussianMixture gmm(
      cluster::GmmOptions{.num_components = 2, .max_iterations = 5});
  ASSERT_TRUE(gmm.Fit(data).ok());
  const std::string json = rec.ChromeTraceJson();
  const std::vector<SpanTotal> totals = rec.AggregateTotals();
  rec.Disable();

  EXPECT_TRUE(JsonChecker(json).Valid()) << json.substr(0, 200);
  EXPECT_EQ(json.front(), '[');  // a trace_event array, not an object
  EXPECT_NE(json.find("\"name\":\"gmm/fit\""), std::string::npos);
  EXPECT_NE(json.find("\"gmm/e_step\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);

  bool found_fit = false;
  for (const SpanTotal& t : totals) {
    if (t.name == "gmm/fit") {
      found_fit = true;
      EXPECT_EQ(t.count, 1);
      EXPECT_GT(t.total_ns, 0);
    }
  }
  EXPECT_TRUE(found_fit);
}

TEST(RunReport, JsonIsValidAndWriteFileRoundTrips) {
  MetricsRegistry::Global().GetCounter("obs_test.report.counter")->Increment();
  RunReport report("obs_test");
  report.set_build_id("test-build");
  report.set_dataset("synthetic/tiny");
  // Use exactly-representable doubles so the %.17g output is predictable.
  report.AddScalar("ndcg.k20", 0.125);
  report.AddScalar("ndcg.k20", 0.75);  // re-add overwrites
  report.AddString("mode", "unit-test");
  report.CaptureMetrics();
  report.CaptureSpans();

  const std::string json = report.ToJson();
  EXPECT_TRUE(JsonChecker(json).Valid()) << json;
  EXPECT_NE(json.find("\"report\":\"obs_test\""), std::string::npos);
  EXPECT_NE(json.find("\"ndcg.k20\":0.75"), std::string::npos);
  EXPECT_EQ(json.find("0.125"), std::string::npos);
  EXPECT_NE(json.find("\"dataset\":\"synthetic/tiny\""), std::string::npos);

  std::string path;
  const Status status = report.WriteFile(::testing::TempDir(), &path);
  ASSERT_TRUE(status.ok()) << status.ToString();
  EXPECT_NE(path.find("BENCH_obs_test.json"), std::string::npos);
  std::ifstream in(path);
  ASSERT_TRUE(in.is_open());
  std::stringstream buffer;
  buffer << in.rdbuf();
  EXPECT_TRUE(JsonChecker(buffer.str()).Valid());
}

TEST(RunReport, WriteFileFailsOnBadDirectory) {
  RunReport report("obs_test_bad");
  const Status status = report.WriteFile("/nonexistent-dir-for-obs-test");
  EXPECT_FALSE(status.ok());
}

TEST(TrainingObserver, SemTrainerReportsEveryEpoch) {
  subspace::SubspaceEncoderOptions encoder;
  encoder.input_dim = 24;
  encoder.hidden_dim = 8;
  encoder.residual = false;
  encoder.attention_dim = 6;
  encoder.mlp_layers = 2;
  subspace::TwinNetwork net(encoder, 7);

  Rng rng(8);
  std::vector<rules::PaperContentFeatures> features(3);
  for (rules::PaperContentFeatures& f : features) {
    for (int s = 0; s < 3; ++s) {
      std::vector<double> v(24);
      for (double& x : v) x = rng.Gaussian(0.0, 1.0);
      f.sentence_vectors.push_back(std::move(v));
      f.roles.push_back(s);
    }
  }
  const std::vector<subspace::Triplet> triplets = {
      {0, 1, 2, 0, 1.0}, {1, 0, 2, 1, 0.8}};

  subspace::SemTrainerOptions options;
  options.epochs = 2;
  std::vector<TrainingEvent> events;
  options.observer = [&events](const TrainingEvent& e) {
    events.push_back(e);
  };
  const auto stats = subspace::TrainTwinNetwork(features, triplets, options, &net);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();

  ASSERT_EQ(events.size(), 2u);
  for (size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(events[i].model, "sem");
    EXPECT_EQ(events[i].epoch, static_cast<int>(i) + 1);
    EXPECT_EQ(events[i].total_epochs, 2);
    EXPECT_EQ(events[i].samples, 2);
    EXPECT_TRUE(std::isfinite(events[i].loss));
    EXPECT_GE(events[i].elapsed_seconds, 0.0);
  }
  EXPECT_GE(events[1].elapsed_seconds, events[0].elapsed_seconds);
}

TEST(Logging, CaptureSeesFormattedLines) {
  LogCapture capture;
  SUBREC_LOG(Warning) << "obs-test-warning " << 42;
  const std::vector<std::string> lines = capture.lines();
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_NE(lines[0].find("obs-test-warning 42"), std::string::npos);
  // The prefix carries level, thread id, and file:line.
  EXPECT_NE(lines[0].find("WARN"), std::string::npos);
  EXPECT_NE(lines[0].find(" T"), std::string::npos);
  EXPECT_NE(lines[0].find("obs_test.cc:"), std::string::npos);
}

TEST(Logging, SetLogSinkRestores) {
  std::vector<std::string> seen;
  LogSink previous = SetLogSink(
      [&seen](LogLevel, const std::string& line) { seen.push_back(line); });
  SUBREC_LOG(Error) << "sink-test";
  SetLogSink(std::move(previous));
  ASSERT_EQ(seen.size(), 1u);
  EXPECT_NE(seen[0].find("sink-test"), std::string::npos);
}

TEST(ObsConcurrency, HammerKeepsExactTotals) {
  MetricsRegistry& reg = MetricsRegistry::Global();
  Counter* counter = reg.GetCounter("obs_test.hammer.counter");
  Gauge* gauge = reg.GetGauge("obs_test.hammer.gauge");
  Histogram* hist = reg.GetHistogram("obs_test.hammer.hist", {0.25, 0.5, 0.75});
  counter->Reset();
  hist->Reset();
  TraceRecorder::Global().Enable(1 << 10);

  constexpr int kThreads = 8;
  constexpr int kIters = 5000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([=] {
      for (int i = 0; i < kIters; ++i) {
        SUBREC_TRACE_SPAN("obs_test/hammer");
        counter->Increment();
        gauge->Set(static_cast<double>(i));
        hist->Observe(static_cast<double>(i % 4) / 4.0);
        if (i % 1024 == 0) SUBREC_LOG(Debug) << "hammer " << i;
      }
    });
  }
  for (std::thread& t : threads) t.join();
  TraceRecorder::Global().Disable();

  EXPECT_EQ(counter->value(), kThreads * kIters);
  EXPECT_EQ(hist->count(), kThreads * kIters);
  // Every observation lands in exactly one bucket.
  int64_t bucket_sum = 0;
  for (int64_t b : hist->bucket_counts()) bucket_sum += b;
  EXPECT_EQ(bucket_sum, kThreads * kIters);
  EXPECT_GE(gauge->value(), 0.0);
}

}  // namespace
}  // namespace subrec::obs
