/// Chaos suite (docs/robustness.md): deterministic fault injection driven
/// end to end through the serving layer.
///  * Client retries carry submits through truncated response lines (same
///    rid= fingerprint, counted by the server as retried_submits),
///  * client io deadlines surface as ClientTimeoutError against a peer
///    that accepts but never answers,
///  * injected faults are visible in stats/metrics (faults_injected,
///    per-site dominosyn_faults_injected_total).

#include <gtest/gtest.h>

#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <string>

#include "blif/blif.hpp"
#include "flow/flow.hpp"
#include "server/client.hpp"
#include "server/core.hpp"
#include "server/protocol.hpp"
#include "server/transport.hpp"
#include "util/fault.hpp"

namespace dominosyn {
namespace {

/// Every test runs with a locally-configured spec and leaves the registry
/// disarmed, so specs cannot leak between tests (or in from the CI chaos
/// job's DOMINOSYN_FAULT_SPEC, which these assertions don't expect).
class ChaosTest : public ::testing::Test {
 protected:
  void SetUp() override {
    if (fault::kFaultsCompiledOut)
      GTEST_SKIP() << "built with DOMINOSYN_NO_FAULTS";
    fault::clear();
  }
  void TearDown() override { fault::clear(); }
};

TEST_F(ChaosTest, SubmitRetriesThroughTruncatedResponses) {
  const std::string blif_text =
      ".model chaos_tiny\n"
      ".inputs a b c\n"
      ".outputs f g\n"
      ".names a b f\n11 1\n"
      ".names b c g\n00 1\n"
      ".end\n";
  const Network net = blif::read_string(blif_text);
  // Mirror exactly what the wire command sets: defaults + mode + sim_steps.
  FlowOptions options;
  options.mode = PhaseMode::kMinPower;
  options.sim.steps = 128;
  const FlowReport reference = run_flow(net, options);

  ServerCore core(ServerConfig{});
  TransportConfig transport;
  SocketServer server(core, transport);

  Client client = Client::connect_tcp("127.0.0.1", server.port());
  RetryPolicy retry;
  retry.max_attempts = 4;
  retry.base_ms = 1;
  retry.cap_ms = 5;
  client.set_retry_policy(retry);

  const std::string command = "submit blif=inline mode=mp sim_steps=128";
  const std::string& body = blif_text;

  // First two response lines come back torn in half; the third attempt's
  // line is whole.  Every attempt carries the same rid=, so the server sees
  // one logical request three times (two of them marked retry=).
  fault::configure("protocol.response.truncate=first:2");
  const Client::SubmitSummary summary = client.submit(command, body);
  fault::clear();

  ASSERT_TRUE(summary.ok) << summary.raw;
  EXPECT_EQ(summary.sim_power, reference.sim_power);
  EXPECT_EQ(summary.cells, reference.cells);
  EXPECT_EQ(client.telemetry().retries, 2u);
  EXPECT_EQ(client.telemetry().reconnects, 2u);

  const ServerCore::Stats stats = core.stats();
  // Attempt 1 executed; attempts 2 and 3 carried retry= and re-attached to
  // its finished job instead of re-running the flow (docs/robustness.md).
  EXPECT_EQ(stats.completed, 1u);
  EXPECT_EQ(stats.retried_submits, 2u);
  EXPECT_EQ(stats.reattached_submits, 2u);

  server.stop();
  core.shutdown();
}

TEST_F(ChaosTest, SubmitRetriesThroughServerSendFailure) {
  // transport.send.fail makes the daemon's first response send die with EIO,
  // which tears the connection — the client must retry on a fresh socket via
  // the exception path (distinct from the torn-line path above).
  const std::string blif_text =
      ".model chaos_tiny2\n"
      ".inputs a b\n"
      ".outputs f\n"
      ".names a b f\n10 1\n"
      ".end\n";
  ServerCore core(ServerConfig{});
  TransportConfig transport;
  SocketServer server(core, transport);

  Client client = Client::connect_tcp("127.0.0.1", server.port());
  RetryPolicy retry;
  retry.max_attempts = 3;
  retry.base_ms = 1;
  client.set_retry_policy(retry);

  fault::configure("transport.send.fail=nth:1");
  const Client::SubmitSummary summary =
      client.submit("submit blif=inline mode=ma sim_steps=128", blif_text);
  // The injection rides the stats line and the per-site Prometheus counter
  // (read before clear(), which resets the tallies).
  EXPECT_EQ(core.stats().faults_injected, 1u);
  EXPECT_NE(core.prometheus_text().find(
                "dominosyn_faults_injected_total{site=\"transport.send.fail\"} 1\n"),
            std::string::npos);
  fault::clear();
  ASSERT_TRUE(summary.ok) << summary.raw;
  EXPECT_EQ(client.telemetry().retries, 1u);
  EXPECT_EQ(client.telemetry().reconnects, 1u);

  server.stop();
  core.shutdown();
}

TEST_F(ChaosTest, ClientIoDeadlineSurfacesAsTimeout) {
  // A peer that accepts the connection but never answers: bind + listen
  // without ever reading or writing.
  const int listener = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(listener, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = 0;
  ASSERT_EQ(::bind(listener, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  ASSERT_EQ(::listen(listener, 4), 0);
  socklen_t len = sizeof(addr);
  ASSERT_EQ(::getsockname(listener, reinterpret_cast<sockaddr*>(&addr), &len),
            0);

  ClientTimeouts timeouts;
  timeouts.connect_ms = 1'000;
  timeouts.io_ms = 100;
  Client client =
      Client::connect_tcp("127.0.0.1", ntohs(addr.sin_port), timeouts);
  const auto start = std::chrono::steady_clock::now();
  EXPECT_THROW((void)client.request("ping"), ClientTimeoutError);
  const auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
      std::chrono::steady_clock::now() - start);
  EXPECT_GE(elapsed.count(), 50);
  EXPECT_LT(elapsed.count(), 5'000);
  EXPECT_EQ(client.telemetry().timeouts, 1u);
  ::close(listener);
}

}  // namespace
}  // namespace dominosyn
