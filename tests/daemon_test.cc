// End-to-end daemon behavior over real loopback sockets: protocol verbs,
// fault-tolerant framing, admission control and overload shedding,
// deadlines with partial stats, session degradation (LRU eviction,
// quarantine), disconnect cancellation, and drain-on-shutdown. Each test
// starts its own in-process Server on an ephemeral port; the chaos-soak
// counterpart (daemon_soak_test.cc) drives the same surface randomly.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "base/deadline.h"
#include "base/worksteal.h"
#include "daemon_harness.h"
#include "net/client.h"
#include "net/server.h"

namespace xicc {
namespace net {
namespace {

std::unique_ptr<Server> MustStart(ServerOptions options) {
  auto server = Server::Start(options);
  EXPECT_TRUE(server.ok()) << server.status();
  return server.ok() ? std::move(*server) : nullptr;
}

Client MustConnect(const Server& server) {
  ClientOptions options;
  options.port = server.port();
  auto client = Client::Connect(options);
  EXPECT_TRUE(client.ok()) << client.status();
  return std::move(*client);
}

/// Polls `stats()` until `pred` holds or the budget expires.
template <typename Pred>
bool EventuallyStats(const Server& server, Pred pred, int64_t budget_ms) {
  Deadline deadline = Deadline::After(budget_ms);
  while (!deadline.Expired()) {
    if (pred(server.stats())) return true;
    SleepFor(2, nullptr);
  }
  return pred(server.stats());
}

TEST(DaemonTest, PingAndStats) {
  auto server = MustStart({});
  ASSERT_NE(server, nullptr);
  Client client = MustConnect(*server);

  auto pong = client.Call(Req("ping", 1));
  ASSERT_TRUE(pong.ok()) << pong.status();
  EXPECT_TRUE(pong->GetBool("ok", false));
  EXPECT_EQ(pong->GetInt("id", 0), 1);

  auto stats = client.Call(Req("stats", 2));
  ASSERT_TRUE(stats.ok());
  const JsonValue* s = stats->Find("stats");
  ASSERT_NE(s, nullptr);
  EXPECT_EQ(s->GetInt("connections_accepted", -1), 1);
  EXPECT_GE(s->GetInt("requests", 0), 1);
  EXPECT_EQ(s->GetInt("responses_internal", -1), 0);
}

TEST(DaemonTest, SessionLifecycle) {
  auto server = MustStart({});
  ASSERT_NE(server, nullptr);
  Client client = MustConnect(*server);
  const TextSpec spec = EasySpec();

  auto open = client.Call(OpenReq(1, spec));
  ASSERT_TRUE(open.ok()) << open.status();
  ASSERT_TRUE(open->GetBool("ok", false)) << open->Dump();
  const uint64_t session =
      static_cast<uint64_t>(open->GetInt("session", 0));
  ASSERT_GT(session, 0u);

  // Check against the session's DTD.
  auto check = client.Call(CheckReq(2, session, spec.sigma));
  ASSERT_TRUE(check.ok());
  ASSERT_TRUE(check->GetBool("ok", false)) << check->Dump();
  EXPECT_TRUE(check->GetBool("consistent", false));
  EXPECT_NE(check->Find("stats"), nullptr);

  // Commit it, then ask for an implication of the committed set.
  auto commit = client.Call(
      Req("commit", 3)
          .Set("session", JsonValue::Int(static_cast<int64_t>(session)))
          .Set("sigma", JsonValue::Str(spec.sigma)));
  ASSERT_TRUE(commit.ok());
  EXPECT_TRUE(commit->GetBool("ok", false)) << commit->Dump();

  // Any committed constraint is implied by the committed set.
  const std::string first_line =
      spec.sigma.substr(0, spec.sigma.find('\n'));
  auto implies = client.Call(
      Req("implies", 4)
          .Set("session", JsonValue::Int(static_cast<int64_t>(session)))
          .Set("phi", JsonValue::Str(first_line)));
  ASSERT_TRUE(implies.ok());
  ASSERT_TRUE(implies->GetBool("ok", false)) << implies->Dump();
  EXPECT_TRUE(implies->GetBool("implied", false));

  auto rollback = client.Call(
      Req("rollback", 5)
          .Set("session", JsonValue::Int(static_cast<int64_t>(session))));
  ASSERT_TRUE(rollback.ok());
  EXPECT_TRUE(rollback->GetBool("ok", false));

  auto close = client.Call(
      Req("close", 6)
          .Set("session", JsonValue::Int(static_cast<int64_t>(session))));
  ASSERT_TRUE(close.ok());
  EXPECT_TRUE(close->GetBool("ok", false));

  // The session is gone: further use is INVALID_ARGUMENT, not a hang.
  auto stale = client.Call(CheckReq(7, session, spec.sigma));
  ASSERT_TRUE(stale.ok());
  EXPECT_EQ(stale->GetString("error", ""), "INVALID_ARGUMENT")
      << stale->Dump();

  EXPECT_TRUE(EventuallyStats(
      *server, [](const ServerStats& s) { return s.open_sessions == 0; },
      1000));
}

TEST(DaemonTest, ImpliesReportsTheCounterexampleTheSessionBuilt) {
  auto server = MustStart({});
  ASSERT_NE(server, nullptr);
  Client client = MustConnect(*server);
  const std::string dtd = workloads::CatalogDtd(2).ToString();
  auto open_session = [&](int64_t id, bool witness) -> uint64_t {
    auto open = client.Call(Req("open", id)
                                .Set("dtd", JsonValue::Str(dtd))
                                .Set("witness", JsonValue::Bool(witness)));
    EXPECT_TRUE(open.ok()) << open.status();
    if (!open.ok()) return 0;
    EXPECT_TRUE(open->GetBool("ok", false)) << open->Dump();
    return static_cast<uint64_t>(open->GetInt("session", 0));
  };
  auto implies = [&](int64_t id, uint64_t session, const std::string& phi) {
    auto response = client.Call(
        Req("implies", id)
            .Set("session", JsonValue::Int(static_cast<int64_t>(session)))
            .Set("phi", JsonValue::Str(phi)));
    if (!response.ok()) {
      ADD_FAILURE() << response.status();
      return JsonValue::Object();
    }
    EXPECT_TRUE(response->GetBool("ok", false)) << response->Dump();
    return std::move(*response);
  };

  const uint64_t with_witness = open_session(1, /*witness=*/true);
  ASSERT_GT(with_witness, 0u);
  // Lemma 3.7 (nothing committed): two item1 elements sharing an id, so
  // at least the root, one section and the two items.
  JsonValue key_goal = implies(2, with_witness, "key item1(id)");
  EXPECT_FALSE(key_goal.GetBool("implied", true));
  EXPECT_GE(key_goal.GetInt("counterexample_nodes", 0), 4) << key_goal.Dump();
  // Refutation through the Section 5 region system: an item1 ref outside
  // every item2 id.
  JsonValue fk_goal = implies(3, with_witness, "fk item1(ref) => item2(id)");
  EXPECT_FALSE(fk_goal.GetBool("implied", true));
  EXPECT_GE(fk_goal.GetInt("counterexample_nodes", 0), 3) << fk_goal.Dump();

  // An implied goal has no counterexample to report.
  auto commit = client.Call(
      Req("commit", 4)
          .Set("session", JsonValue::Int(static_cast<int64_t>(with_witness)))
          .Set("sigma", JsonValue::Str("key item1(id)")));
  ASSERT_TRUE(commit.ok());
  ASSERT_TRUE(commit->GetBool("ok", false)) << commit->Dump();
  JsonValue implied = implies(5, with_witness, "key item1(id)");
  EXPECT_TRUE(implied.GetBool("implied", false));
  EXPECT_EQ(implied.Find("counterexample_nodes"), nullptr) << implied.Dump();

  // Nor does a session that builds no witnesses.
  const uint64_t without = open_session(6, /*witness=*/false);
  ASSERT_GT(without, 0u);
  JsonValue bare = implies(7, without, "key item1(id)");
  EXPECT_FALSE(bare.GetBool("implied", true));
  EXPECT_EQ(bare.Find("counterexample_nodes"), nullptr) << bare.Dump();
}

// A one-shot implies, like a one-shot check, builds a counterexample only
// when the request carries "witness": true.
TEST(DaemonTest, OneShotImpliesBuildsACounterexampleOnlyWhenAsked) {
  auto server = MustStart({});
  ASSERT_NE(server, nullptr);
  Client client = MustConnect(*server);
  const std::string dtd = workloads::CatalogDtd(2).ToString();
  for (bool witness : {false, true}) {
    JsonValue request = Req("implies", witness ? 2 : 1)
                            .Set("dtd", JsonValue::Str(dtd))
                            .Set("phi", JsonValue::Str("key item1(id)"));
    if (witness) request.Set("witness", JsonValue::Bool(true));
    auto response = client.Call(request);
    ASSERT_TRUE(response.ok()) << response.status();
    ASSERT_TRUE(response->GetBool("ok", false)) << response->Dump();
    EXPECT_FALSE(response->GetBool("implied", true));
    if (witness) {
      EXPECT_GE(response->GetInt("counterexample_nodes", 0), 4)
          << response->Dump();
    } else {
      EXPECT_EQ(response->Find("counterexample_nodes"), nullptr)
          << response->Dump();
    }
  }
}

TEST(DaemonTest, MalformedFramesAnswerInvalidArgumentAndConnectionLives) {
  ServerOptions options;
  options.max_line_bytes = 512;
  auto server = MustStart(options);
  ASSERT_NE(server, nullptr);
  Client client = MustConnect(*server);

  // Hostile inputs, all on ONE connection: each answers INVALID_ARGUMENT
  // and the connection keeps working.
  const std::string kHostile[] = {
      "not json at all",
      "{\"verb\":",
      "[1,2,3]",
      "{\"verb\":\"warp\"}",
      "{\"verb\":\"check\"}",
      "{\"nested\":" + std::string(200, '[') + std::string(200, ']') + "}",
  };
  for (const std::string& line : kHostile) {
    auto resp = client.CallRaw(line);
    ASSERT_TRUE(resp.ok()) << "dropped on: " << line << ": "
                           << resp.status();
    EXPECT_EQ(resp->GetString("error", ""), "INVALID_ARGUMENT")
        << line << " → " << resp->Dump();
  }

  // An oversize line: reported once, then the stream resynchronizes.
  auto oversize = client.CallRaw(std::string(2048, 'x'));
  ASSERT_TRUE(oversize.ok()) << oversize.status();
  EXPECT_EQ(oversize->GetString("error", ""), "INVALID_ARGUMENT");

  auto pong = client.Call(Req("ping", 42));
  ASSERT_TRUE(pong.ok()) << pong.status();
  EXPECT_TRUE(pong->GetBool("ok", false));

  const ServerStats stats = server->stats();
  // Three of the hostile lines fail at the JSON layer (malformed frames);
  // the rest are well-formed JSON with a broken envelope — every one of
  // them answered INVALID_ARGUMENT either way.
  EXPECT_GE(stats.malformed_frames, 3u);
  EXPECT_GE(stats.oversize_frames, 1u);
  EXPECT_GE(stats.responses_invalid_argument, 7u);
  EXPECT_EQ(stats.responses_internal, 0u);
}

TEST(DaemonTest, DeadlineExceededCarriesPartialStats) {
  auto server = MustStart({});
  ASSERT_NE(server, nullptr);
  Client client = MustConnect(*server);
  const TextSpec spec = HardSpec();

  auto resp = client.Call(OneShotCheckReq(1, spec, /*timeout_ms=*/1));
  ASSERT_TRUE(resp.ok()) << resp.status();
  ASSERT_EQ(resp->GetString("error", ""), "DEADLINE_EXCEEDED")
      << resp->Dump();
  // The partial stats of the stopped search ride on the error.
  const JsonValue* partial = resp->Find("partial");
  ASSERT_NE(partial, nullptr) << resp->Dump();
  EXPECT_NE(partial->Find("ilp_nodes"), nullptr);

  // Same via a session.
  auto open = client.Call(OpenReq(2, spec));
  ASSERT_TRUE(open.ok() && open->GetBool("ok", false)) << open->Dump();
  const uint64_t session = static_cast<uint64_t>(open->GetInt("session", 0));
  auto timed = client.Call(CheckReq(3, session, spec.sigma, 1));
  ASSERT_TRUE(timed.ok());
  EXPECT_EQ(timed->GetString("error", ""), "DEADLINE_EXCEEDED")
      << timed->Dump();
  EXPECT_NE(timed->Find("partial"), nullptr);

  // A deadline is a fault strike but not a death sentence: the session
  // still answers a cheap query (default quarantine threshold is 3).
  const std::string one_key = spec.sigma.substr(0, spec.sigma.find('\n'));
  auto again = client.Call(CheckReq(4, session, one_key));
  ASSERT_TRUE(again.ok());
  EXPECT_TRUE(again->GetBool("ok", false)) << again->Dump();
}

TEST(DaemonTest, OverloadShedsWithRetryAfterAndClientBackoffRecovers) {
  ServerOptions options;
  options.workers = 1;
  options.max_inflight = 1;
  options.retry_after_ms = 15;
  auto server = MustStart(options);
  ASSERT_NE(server, nullptr);

  // Saturate the single in-flight slot with a bounded slow check.
  Client slow = MustConnect(*server);
  const TextSpec hard = HardSpec();
  // Fire-and-read-later: write the request, don't wait for the response.
  ASSERT_TRUE(slow.connected());
  Client probe = MustConnect(*server);

  // The slow call occupies the slot for ~its full deadline, because the
  // LIP gadget search does not finish in 400ms.
  WorkStealingPool pool(1);
  pool.Submit([&slow, &hard] {
    auto resp = slow.Call(OneShotCheckReq(1, hard, /*timeout_ms=*/400));
    // DEADLINE_EXCEEDED (search stopped) — or ok if the box is absurdly
    // fast; either way the slot was held.
    EXPECT_TRUE(resp.ok()) << resp.status();
  });

  // Give the slow request time to be admitted.
  ASSERT_TRUE(EventuallyStats(
      *server, [](const ServerStats& s) { return s.inflight >= 1; }, 2000));

  // A bare call now is shed: UNAVAILABLE + retry_after_ms, and the
  // connection is NOT dropped.
  auto shed = probe.Call(Req("ping", 2));
  ASSERT_TRUE(shed.ok()) << shed.status();
  EXPECT_EQ(shed->GetString("error", ""), "UNAVAILABLE") << shed->Dump();
  EXPECT_EQ(shed->GetInt("retry_after_ms", 0), 15);
  EXPECT_TRUE(probe.connected());

  // The retrying client absorbs the shed responses and recovers once the
  // slot frees.
  RetryPolicy policy;
  policy.max_attempts = 40;
  policy.initial_backoff_ms = 10;
  policy.max_backoff_ms = 50;
  RetryStats retry_stats;
  auto recovered = probe.CallWithRetry(Req("ping", 3), policy, &retry_stats);
  ASSERT_TRUE(recovered.ok()) << recovered.status();
  EXPECT_TRUE(recovered->GetBool("ok", false)) << recovered->Dump();
  EXPECT_GE(retry_stats.attempts, 1);

  const ServerStats stats = server->stats();
  EXPECT_GE(stats.shed_requests, 1u);
  EXPECT_EQ(stats.responses_internal, 0u);
}

TEST(DaemonTest, ConnectionCapShedsAtAccept) {
  ServerOptions options;
  options.max_connections = 1;
  auto server = MustStart(options);
  ASSERT_NE(server, nullptr);
  Client first = MustConnect(*server);
  ASSERT_TRUE(first.Call(Req("ping", 1)).ok());

  // The second connection is told UNAVAILABLE at the door and closed.
  ClientOptions copts;
  copts.port = server->port();
  auto second = Client::Connect(copts);
  ASSERT_TRUE(second.ok()) << second.status();
  auto resp = second->Call(Req("ping", 2));
  if (resp.ok()) {
    // The farewell frame made it before the close.
    EXPECT_EQ(resp->GetString("error", ""), "UNAVAILABLE") << resp->Dump();
    EXPECT_GT(resp->GetInt("retry_after_ms", 0), 0);
  } else {
    // Or the close raced the read; both are the UNAVAILABLE contract.
    EXPECT_EQ(resp.status().code(), StatusCode::kUnavailable);
  }
  EXPECT_TRUE(EventuallyStats(
      *server, [](const ServerStats& s) { return s.connections_shed >= 1; },
      1000));

  // The first connection is unaffected.
  EXPECT_TRUE(first.Call(Req("ping", 3)).ok());
}

TEST(DaemonTest, LruEvictionKeepsSessionTableBounded) {
  ServerOptions options;
  options.max_sessions = 2;
  auto server = MustStart(options);
  ASSERT_NE(server, nullptr);
  Client client = MustConnect(*server);
  const TextSpec spec = EasySpec();

  uint64_t ids[3] = {0, 0, 0};
  for (int i = 0; i < 3; ++i) {
    auto open = client.Call(OpenReq(i + 1, spec));
    ASSERT_TRUE(open.ok() && open->GetBool("ok", false)) << open->Dump();
    ids[i] = static_cast<uint64_t>(open->GetInt("session", 0));
  }

  // The oldest (LRU) session was evicted to admit the third.
  const ServerStats stats = server->stats();
  EXPECT_EQ(stats.sessions_evicted, 1u);
  EXPECT_EQ(stats.open_sessions, 2u);

  auto evicted = client.Call(CheckReq(10, ids[0], spec.sigma));
  ASSERT_TRUE(evicted.ok());
  EXPECT_EQ(evicted->GetString("error", ""), "INVALID_ARGUMENT");
  auto alive = client.Call(CheckReq(11, ids[2], spec.sigma));
  ASSERT_TRUE(alive.ok());
  EXPECT_TRUE(alive->GetBool("ok", false)) << alive->Dump();
}

TEST(DaemonTest, RepeatedlyFaultingSessionIsQuarantined) {
  ServerOptions options;
  options.quarantine_after_faults = 2;
  auto server = MustStart(options);
  ASSERT_NE(server, nullptr);
  Client client = MustConnect(*server);
  const TextSpec hard = HardSpec();

  auto open = client.Call(OpenReq(1, hard));
  ASSERT_TRUE(open.ok() && open->GetBool("ok", false)) << open->Dump();
  const uint64_t session = static_cast<uint64_t>(open->GetInt("session", 0));

  // Two deadline faults in a row reach the quarantine threshold.
  for (int i = 0; i < 2; ++i) {
    auto resp = client.Call(CheckReq(2 + i, session, hard.sigma, 1));
    ASSERT_TRUE(resp.ok());
    ASSERT_EQ(resp->GetString("error", ""), "DEADLINE_EXCEEDED")
        << resp->Dump();
  }

  // The quarantined session refuses further work as UNAVAILABLE — the
  // caller can open a fresh session; this one is suspected poisoned.
  auto refused = client.Call(CheckReq(4, session, hard.sigma));
  ASSERT_TRUE(refused.ok());
  EXPECT_EQ(refused->GetString("error", ""), "UNAVAILABLE")
      << refused->Dump();
  EXPECT_EQ(server->stats().sessions_quarantined, 1u);
}

TEST(DaemonTest, DisconnectCancelsInflightWork) {
  auto server = MustStart({});
  ASSERT_NE(server, nullptr);
  const TextSpec hard = HardSpec();

  // A long check with NO deadline, then vanish. The server must not burn
  // the worker until the search completes naturally. Raw socket: write the
  // request, never read, close.
  auto fd = TcpConnect(server->port(), /*timeout_ms=*/1000);
  ASSERT_TRUE(fd.ok()) << fd.status();
  const std::string line = OneShotCheckReq(1, hard, /*timeout_ms=*/0).Dump() +
                           "\n";
  ASSERT_TRUE(WriteAll(*fd, line, /*deadline_ms=*/1000).ok());
  ASSERT_TRUE(EventuallyStats(
      *server, [](const ServerStats& s) { return s.inflight >= 1; }, 2000));
  fd->Close();

  // The disconnect fires the connection's cancel token; the worker stops
  // at its next solver poll and accounting returns to zero.
  EXPECT_TRUE(EventuallyStats(
      *server,
      [](const ServerStats& s) {
        return s.inflight == 0 && s.disconnect_cancels >= 1;
      },
      5000))
      << "inflight=" << server->stats().inflight
      << " cancels=" << server->stats().disconnect_cancels;
}

TEST(DaemonTest, ShutdownVerbDrainsAndServerStops) {
  auto server = MustStart({});
  ASSERT_NE(server, nullptr);
  Client client = MustConnect(*server);

  auto resp = client.Call(Req("shutdown", 1));
  ASSERT_TRUE(resp.ok()) << resp.status();
  EXPECT_TRUE(resp->GetBool("ok", false));

  server->Wait();
  EXPECT_TRUE(server->Stopped());
  const ServerStats stats = server->stats();
  EXPECT_TRUE(stats.draining);
  EXPECT_EQ(stats.inflight, 0u);
  EXPECT_EQ(stats.open_sessions, 0u);

  // New connections are refused (listener closed).
  ClientOptions copts;
  copts.port = server->port();
  copts.connect_timeout_ms = 200;
  auto late = Client::Connect(copts);
  if (late.ok()) {
    auto r = late->Call(Req("ping", 2));
    EXPECT_FALSE(r.ok() && r->GetBool("ok", false));
  }
}

TEST(DaemonTest, DrainCancelsOverdueWorkAtDeadline) {
  ServerOptions options;
  options.drain_deadline_ms = 150;
  auto server = MustStart(options);
  ASSERT_NE(server, nullptr);
  ClientOptions copts;
  copts.port = server->port();
  copts.io_timeout_ms = 5000;  // bound the test even if the farewell is lost
  auto connected = Client::Connect(copts);
  ASSERT_TRUE(connected.ok()) << connected.status();
  Client client = std::move(*connected);
  const TextSpec hard = HardSpec();

  WorkStealingPool pool(1);
  pool.Submit([&client, &hard] {
    auto resp = client.Call(OneShotCheckReq(1, hard, /*timeout_ms=*/0));
    // Either the CANCELLED farewell arrives, or the transport drops first;
    // both are a bounded, accounted end.
    if (resp.ok()) {
      EXPECT_TRUE(IsClosedOutcome(*resp)) << resp->Dump();
    }
  });
  ASSERT_TRUE(EventuallyStats(
      *server, [](const ServerStats& s) { return s.inflight >= 1; }, 2000));

  const Deadline drain_budget = Deadline::After(5000);
  server->RequestShutdown();
  server->Wait();
  EXPECT_TRUE(server->Stopped());
  EXPECT_FALSE(drain_budget.Expired()) << "drain exceeded its budget";
  const ServerStats stats = server->stats();
  EXPECT_EQ(stats.inflight, 0u);
  EXPECT_EQ(stats.responses_internal, 0u);
}

TEST(DaemonTest, BatchMixesVerdictsAndFlagsBadItems) {
  auto server = MustStart({});
  ASSERT_NE(server, nullptr);
  Client client = MustConnect(*server);
  TextSpec spec;
  spec.dtd =
      "<!ELEMENT r (a*)> <!ELEMENT a EMPTY> "
      "<!ATTLIST a id CDATA #REQUIRED>";
  spec.sigma = "key a(id)\n";

  JsonValue sigmas = JsonValue::Array();
  sigmas.Push(JsonValue::Str(spec.sigma));                  // consistent
  sigmas.Push(JsonValue::Str("key a(id)\n!key a(id)\n"));   // inconsistent
  sigmas.Push(JsonValue::Str("this is not a constraint"));  // parse error
  JsonValue req = Req("batch", 1);
  req.Set("dtd", JsonValue::Str(spec.dtd)).Set("sigmas", sigmas);

  auto resp = client.Call(req);
  ASSERT_TRUE(resp.ok()) << resp.status();
  ASSERT_TRUE(resp->GetBool("ok", false)) << resp->Dump();
  const JsonValue* results = resp->Find("results");
  ASSERT_NE(results, nullptr);
  ASSERT_EQ(results->AsArray().size(), 3u);
  EXPECT_EQ(results->AsArray()[0].GetString("status", ""), "ok");
  EXPECT_TRUE(results->AsArray()[0].GetBool("consistent", false));
  EXPECT_EQ(results->AsArray()[1].GetString("status", ""), "ok");
  EXPECT_FALSE(results->AsArray()[1].GetBool("consistent", true));
  EXPECT_EQ(results->AsArray()[2].GetString("status", ""),
            "INVALID_ARGUMENT");
}

// A batch request's timeout_ms bounds its items, as a check's bounds the
// check: the one item, whose search alone takes about a second, answers
// DEADLINE_EXCEEDED inside the response.
TEST(DaemonTest, BatchTimeoutBoundsEveryItem) {
  ServerOptions options;
  options.workers = 1;
  auto server = MustStart(options);
  ASSERT_NE(server, nullptr);
  Client client = MustConnect(*server);
  const workloads::LipEncoding enc = workloads::EncodeLipAsConsistency(
      workloads::RandomLip(/*seed=*/3, /*rows=*/32, /*cols=*/64,
                           /*ones_per_row=*/3));
  JsonValue sigmas = JsonValue::Array();
  sigmas.Push(JsonValue::Str(SigmaText(enc.sigma)));
  JsonValue req = Req("batch", 1);
  req.Set("dtd", JsonValue::Str(enc.dtd.ToString()))
      .Set("sigmas", sigmas)
      .Set("timeout_ms", JsonValue::Int(50));

  auto resp = client.Call(req);
  ASSERT_TRUE(resp.ok()) << resp.status();
  ASSERT_TRUE(resp->GetBool("ok", false)) << resp->Dump();
  const JsonValue* results = resp->Find("results");
  ASSERT_NE(results, nullptr) << resp->Dump();
  ASSERT_EQ(results->AsArray().size(), 1u);
  EXPECT_EQ(results->AsArray()[0].GetString("status", ""),
            "DEADLINE_EXCEEDED")
      << resp->Dump();
}

// An item budget past the clock's range is no budget: the item answers
// instead of expiring at once and being quarantined.
TEST(DaemonTest, BatchItemTimeoutPastTheClockRangeNeverExpires) {
  auto server = MustStart({});
  ASSERT_NE(server, nullptr);
  Client client = MustConnect(*server);
  JsonValue sigmas = JsonValue::Array();
  sigmas.Push(JsonValue::Str("key a(id)\n"));
  JsonValue req = Req("batch", 1);
  req.Set("dtd", JsonValue::Str("<!ELEMENT r (a*)> <!ELEMENT a EMPTY> "
                                "<!ATTLIST a id CDATA #REQUIRED>"))
      .Set("sigmas", sigmas)
      .Set("item_timeout_ms", JsonValue::Int(INT64_MAX));

  auto resp = client.Call(req);
  ASSERT_TRUE(resp.ok()) << resp.status();
  ASSERT_TRUE(resp->GetBool("ok", false)) << resp->Dump();
  const JsonValue* results = resp->Find("results");
  ASSERT_NE(results, nullptr) << resp->Dump();
  ASSERT_EQ(results->AsArray().size(), 1u);
  EXPECT_EQ(results->AsArray()[0].GetString("status", ""), "ok")
      << resp->Dump();
  EXPECT_TRUE(results->AsArray()[0].GetBool("consistent", false));
  const JsonValue* degraded = resp->Find("degraded");
  ASSERT_NE(degraded, nullptr);
  EXPECT_EQ(degraded->GetInt("quarantined", -1), 0);
}

}  // namespace
}  // namespace net
}  // namespace xicc
