#include "obs/provenance.h"

#include <gtest/gtest.h>

#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

namespace leime::obs {
namespace {

DecisionRecord make_record(std::uint64_t seq, DecisionKind kind,
                           DecisionPath path, const std::string& cls,
                           double cost) {
  DecisionRecord r;
  r.seq = seq;
  r.kind = kind;
  r.path = path;
  r.cls = cls;
  r.cost = cost;
  return r;
}

TEST(ProvenanceConfig, EffectiveSampleResolvesImplicitEnables) {
  ProvenanceConfig off;
  EXPECT_FALSE(off.enabled());
  EXPECT_EQ(off.effective_sample_n(), 0u);
  EXPECT_NO_THROW(off.validate());

  ProvenanceConfig by_rate;
  by_rate.sample_n = 8;
  EXPECT_TRUE(by_rate.enabled());
  EXPECT_EQ(by_rate.effective_sample_n(), 8u);

  // An output path or an oracle request implies 1-in-1 when sample_n was
  // left 0 (the trace_out idiom), but never overrides an explicit rate.
  ProvenanceConfig by_out;
  by_out.decisions_out = "d.jsonl";
  EXPECT_EQ(by_out.effective_sample_n(), 1u);
  ProvenanceConfig by_dump;
  by_dump.dump_out = "dump.jsonl";
  EXPECT_EQ(by_dump.effective_sample_n(), 1u);
  ProvenanceConfig by_oracle;
  by_oracle.oracle_sample_n = 4;
  EXPECT_EQ(by_oracle.effective_sample_n(), 1u);
  by_oracle.sample_n = 16;
  EXPECT_EQ(by_oracle.effective_sample_n(), 16u);

  // Bad geometry only matters when the pillar is on.
  ProvenanceConfig bad;
  bad.ring_capacity = 0;
  EXPECT_NO_THROW(bad.validate());
  bad.sample_n = 1;
  EXPECT_THROW(bad.validate(), std::invalid_argument);
  EXPECT_THROW(ProvenanceRecorder{bad}, std::invalid_argument);
}

TEST(ProvenanceNames, StayInsideTheRegistryAlphabet) {
  const auto ok = [](const std::string& s) {
    for (char c : s)
      if (!((c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') || c == '_'))
        return false;
    return !s.empty();
  };
  for (int k = 0; k < kDecisionKindCount; ++k)
    EXPECT_TRUE(ok(decision_kind_name(static_cast<DecisionKind>(k))));
  for (int p = 0; p < kDecisionPathCount; ++p)
    EXPECT_TRUE(ok(decision_path_name(static_cast<DecisionPath>(p))));
  EXPECT_STREQ(decision_kind_name(DecisionKind::kExitSetting), "exit_setting");
  EXPECT_STREQ(decision_path_name(DecisionPath::kMemoHit), "memo_hit");
}

TEST(ProvenanceRecorder, SamplingAndOracleCadenceAreOrdinalDeterministic) {
  ProvenanceConfig cfg;
  cfg.sample_n = 3;
  cfg.oracle_sample_n = 6;
  ProvenanceRecorder rec(cfg);
  std::vector<std::uint64_t> sampled_seqs, oracle_seqs;
  for (int i = 0; i < 12; ++i) {
    std::uint64_t seq = 999;
    bool oracle = false;
    if (rec.begin_decision(&seq, &oracle)) {
      sampled_seqs.push_back(seq);
      if (oracle) oracle_seqs.push_back(seq);
      rec.record(make_record(seq, DecisionKind::kExitSetting,
                             DecisionPath::kCold, "engine", 1.0));
    }
    EXPECT_EQ(seq, static_cast<std::uint64_t>(i));  // ordinals are dense
  }
  EXPECT_EQ(sampled_seqs, (std::vector<std::uint64_t>{0, 3, 6, 9}));
  EXPECT_EQ(oracle_seqs, (std::vector<std::uint64_t>{0, 6}));
  const auto sum = rec.summary();
  EXPECT_TRUE(sum.active);
  EXPECT_EQ(sum.decisions, 12u);  // unsampled decisions still count
  EXPECT_EQ(sum.sampled, 4u);
}

TEST(ProvenanceRecorder, RingEvictsOldestAndCountsEvictions) {
  ProvenanceConfig cfg;
  cfg.sample_n = 1;
  cfg.ring_capacity = 3;
  ProvenanceRecorder rec(cfg);
  for (std::uint64_t i = 0; i < 5; ++i) {
    std::uint64_t seq = 0;
    ASSERT_TRUE(rec.begin_decision(&seq));
    rec.record(make_record(seq, DecisionKind::kOffload, DecisionPath::kDirect,
                           "cam", static_cast<double>(i)));
  }
  const auto window = rec.window();
  ASSERT_EQ(window.size(), 3u);  // bounded: last-N only, oldest first
  EXPECT_EQ(window[0].seq, 2u);
  EXPECT_EQ(window[2].seq, 4u);
  EXPECT_EQ(rec.summary().ring_evictions, 2u);
}

TEST(ProvenanceRecorder, SummaryAccountsKindsPathsAndPerClassRegret) {
  ProvenanceConfig cfg;
  cfg.sample_n = 1;
  cfg.oracle_sample_n = 1;
  ProvenanceRecorder rec(cfg);
  const auto feed = [&](DecisionKind kind, DecisionPath path,
                        const std::string& cls, double cost, double oracle) {
    std::uint64_t seq = 0;
    bool want_oracle = false;
    ASSERT_TRUE(rec.begin_decision(&seq, &want_oracle));
    ASSERT_TRUE(want_oracle);
    auto r = make_record(seq, kind, path, cls, cost);
    r.oracle = true;
    r.oracle_cost = oracle;
    r.regret = cost - oracle;
    rec.record(std::move(r));
  };
  // Classes arrive out of alphabetical order; the summary sorts them.
  feed(DecisionKind::kOffload, DecisionPath::kDirect, "yard", 2.0, 1.5);
  feed(DecisionKind::kExitSetting, DecisionPath::kMemoHit, "engine", 1.0, 1.0);
  feed(DecisionKind::kOffload, DecisionPath::kBatch, "gate", 3.0, 2.0);
  feed(DecisionKind::kOffload, DecisionPath::kDirect, "yard", 5.0, 5.0);

  const auto sum = rec.summary();
  EXPECT_EQ(sum.sampled, 4u);
  EXPECT_EQ(sum.oracle_runs, 4u);
  EXPECT_EQ(sum.kinds[static_cast<std::size_t>(DecisionKind::kExitSetting)],
            1u);
  EXPECT_EQ(sum.kinds[static_cast<std::size_t>(DecisionKind::kOffload)], 3u);
  EXPECT_EQ(sum.paths[static_cast<std::size_t>(DecisionPath::kDirect)], 2u);
  EXPECT_EQ(sum.paths[static_cast<std::size_t>(DecisionPath::kBatch)], 1u);
  EXPECT_EQ(sum.paths[static_cast<std::size_t>(DecisionPath::kMemoHit)], 1u);
  ASSERT_EQ(sum.classes.size(), 3u);
  EXPECT_EQ(sum.classes[0].name, "engine");
  EXPECT_EQ(sum.classes[1].name, "gate");
  EXPECT_EQ(sum.classes[2].name, "yard");
  EXPECT_DOUBLE_EQ(sum.classes[2].regret_sum, 0.5);
  EXPECT_DOUBLE_EQ(sum.classes[2].max_regret, 0.5);
  EXPECT_EQ(sum.classes[2].regret.stats().count(), 2u);
  const auto& offload_hist =
      sum.kind_regret[static_cast<std::size_t>(DecisionKind::kOffload)];
  EXPECT_EQ(offload_hist.stats().count(), 3u);
  EXPECT_DOUBLE_EQ(offload_hist.stats().sum(), 1.5);

  // One JSON line for the runtime JSONL.
  std::ostringstream json;
  sum.to_json(json);
  EXPECT_EQ(json.str().find('\n'), std::string::npos);
  EXPECT_NE(json.str().find("\"decisions\":4,\"sampled\":4"),
            std::string::npos);
  EXPECT_NE(json.str().find("\"paths\":{"), std::string::npos);
}

TEST(ProvenanceJsonl, DecisionLinesAreExactWithNullOptionals) {
  DecisionRecord r;
  r.seq = 7;
  r.t = 2.5;
  r.device = 3;
  r.cls = "cam";
  r.kind = DecisionKind::kOffload;
  r.path = DecisionPath::kDirect;
  r.bandwidth = 1e6;
  r.edge_flops = 5e9;
  r.queue_device = 2;
  r.queue_edge = 1;
  r.x = 0.5;
  r.cost = 1.25;
  r.explored = 33;
  std::ostringstream out;
  write_decisions_jsonl(out, {r});
  EXPECT_EQ(out.str(),
            "{\"type\":\"decision\",\"seq\":7,\"t\":2.5,\"device\":3,"
            "\"class\":\"cam\",\"kind\":\"offload\",\"path\":\"direct\","
            "\"bandwidth\":1000000,\"edge_flops\":5000000000,"
            "\"queue_device\":2,\"queue_edge\":1,\"e1\":0,\"e2\":0,\"e3\":0,"
            "\"x\":0.5,\"cost\":1.25,\"explored\":33,\"pruned\":0,"
            "\"margin\":null,\"oracle_cost\":null,\"regret\":null}\n");

  // Margin/oracle present: numbers replace the nulls.
  r.margin_valid = true;
  r.margin = 0.25;
  r.oracle = true;
  r.oracle_cost = 1.25;
  r.regret = 0.0;
  std::ostringstream out2;
  write_decisions_jsonl(out2, {r});
  EXPECT_NE(out2.str().find("\"margin\":0.25"), std::string::npos);
  EXPECT_NE(out2.str().find("\"oracle_cost\":1.25,\"regret\":0"),
            std::string::npos);
}

TEST(ProvenanceJsonl, FlightDumpFramesWindowAndOpenSpans) {
  DecisionRecord r = make_record(3, DecisionKind::kExitSetting,
                                 DecisionPath::kWarmStart, "engine", 0.75);
  OpenSpanNote span;
  span.task = 42;
  span.device = 1;
  span.phase = "uplink";
  span.track = "dev1/uplink";
  span.t_begin = 9.5;
  std::ostringstream out;
  write_flight_dump(out, 10.0, "cam", 0.5, 5.0, 8, {r}, {span});
  std::istringstream lines(out.str());
  std::string header, decision, open_span, extra;
  ASSERT_TRUE(std::getline(lines, header));
  ASSERT_TRUE(std::getline(lines, decision));
  ASSERT_TRUE(std::getline(lines, open_span));
  EXPECT_FALSE(std::getline(lines, extra));
  EXPECT_EQ(header,
            "{\"type\":\"alert\",\"t\":10,\"class\":\"cam\",\"miss_rate\":0.5,"
            "\"burn\":5,\"window_tasks\":8,\"decisions\":1,\"open_spans\":1}");
  EXPECT_NE(decision.find("\"type\":\"decision\",\"seq\":3"),
            std::string::npos);
  EXPECT_NE(decision.find("\"path\":\"warm_start\""), std::string::npos);
  EXPECT_EQ(open_span,
            "{\"type\":\"open_span\",\"task\":42,\"device\":1,"
            "\"phase\":\"uplink\",\"track\":\"dev1/uplink\","
            "\"t_begin\":9.5}");
}

// Many threads hammering one recorder (the policy::Engine + observer
// sharing pattern): run under check.sh's TSan pass. Totals must conserve
// regardless of interleaving; the per-thread ordinal *sets* are schedule-
// dependent, but the sampled count is 1-in-2 of a dense ordinal space.
TEST(ProvenanceRecorder, ConcurrentEmissionConservesTotals) {
  ProvenanceConfig cfg;
  cfg.sample_n = 2;
  cfg.ring_capacity = 64;
  ProvenanceRecorder rec(cfg);
  constexpr int kThreads = 4, kPerThread = 250;
  std::vector<std::thread> threads;
  for (int w = 0; w < kThreads; ++w)
    threads.emplace_back([&rec, w] {
      for (int i = 0; i < kPerThread; ++i) {
        std::uint64_t seq = 0;
        if (rec.begin_decision(&seq))
          rec.record(make_record(seq, DecisionKind::kOffload,
                                 DecisionPath::kDirect,
                                 "w" + std::to_string(w), 1.0));
      }
    });
  for (auto& t : threads) t.join();
  const auto sum = rec.summary();
  EXPECT_EQ(sum.decisions, 1000u);
  EXPECT_EQ(sum.sampled, 500u);  // even ordinals, whoever claimed them
  EXPECT_EQ(sum.ring_evictions, 500u - 64u);
  EXPECT_EQ(rec.window().size(), 64u);
  std::uint64_t per_class = 0;
  for (const auto& c : sum.classes) per_class += c.sampled;
  EXPECT_EQ(per_class, 500u);
}

}  // namespace
}  // namespace leime::obs
