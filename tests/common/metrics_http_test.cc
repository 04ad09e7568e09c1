// MetricsHttpServer: loopback GET smoke tests. A real client socket hits
// the served endpoint — text exposition at /metrics, JSON snapshot at
// /metrics.json, 404 elsewhere — and Stop/restart lifecycle is exercised
// so examples can hold one server across a run, also while a client that
// connected sends nothing.

#include "common/metrics_http.h"

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <cstring>
#include <future>
#include <string>
#include <thread>

#include "common/metrics_registry.h"

namespace albic {
namespace {

// A socket connected to 127.0.0.1:port, or -1.
int Connect(int port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<uint16_t>(port));
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

// Blocking one-shot HTTP GET against 127.0.0.1:port; returns the full
// response (status line + headers + body), or "" on connect failure.
std::string Get(int port, const std::string& path) {
  const int fd = Connect(port);
  if (fd < 0) return "";
  const std::string req = "GET " + path + " HTTP/1.0\r\n\r\n";
  size_t off = 0;
  while (off < req.size()) {
    const ssize_t n = ::write(fd, req.data() + off, req.size() - off);
    if (n <= 0) break;
    off += static_cast<size_t>(n);
  }
  std::string out;
  char buf[4096];
  for (;;) {
    const ssize_t n = ::read(fd, buf, sizeof(buf));
    if (n <= 0) break;  // server closes after the response
    out.append(buf, static_cast<size_t>(n));
  }
  ::close(fd);
  return out;
}

TEST(MetricsHttpTest, ServesTextAndJsonAndRejectsUnknownPaths) {
  MetricsRegistry reg;
  reg.Counter("tuples_total")->Add(42);
  reg.Gauge("depth")->Set(7);

  MetricsHttpServer server;
  ASSERT_TRUE(server.Start(&reg, /*port=*/0).ok());
  ASSERT_GT(server.port(), 0);
  EXPECT_TRUE(server.running());

  const std::string text = Get(server.port(), "/metrics");
  EXPECT_NE(text.find("200 OK"), std::string::npos);
  EXPECT_NE(text.find("text/plain"), std::string::npos);
  EXPECT_NE(text.find("tuples_total"), std::string::npos);
  EXPECT_NE(text.find("42"), std::string::npos);

  const std::string json = Get(server.port(), "/metrics.json");
  EXPECT_NE(json.find("200 OK"), std::string::npos);
  EXPECT_NE(json.find("application/json"), std::string::npos);
  EXPECT_NE(json.find("\"tuples_total\""), std::string::npos);

  const std::string missing = Get(server.port(), "/nope");
  EXPECT_NE(missing.find("404"), std::string::npos);

  server.Stop();
  EXPECT_FALSE(server.running());
  EXPECT_EQ(server.port(), 0);
}

TEST(MetricsHttpTest, ServesLiveValuesNotAStartSnapshot) {
  MetricsRegistry reg;
  CounterMetric* c = reg.Counter("live_total");
  MetricsHttpServer server;
  ASSERT_TRUE(server.Start(&reg, 0).ok());
  c->Add(5);  // published after Start: a scrape must still see it
  const std::string text = Get(server.port(), "/metrics");
  EXPECT_NE(text.find("live_total 5"), std::string::npos);
  c->Add(5);
  const std::string again = Get(server.port(), "/metrics");
  EXPECT_NE(again.find("live_total 10"), std::string::npos);
}

TEST(MetricsHttpTest, LifecycleStopIsIdempotentAndRestartRebinds) {
  MetricsRegistry reg;
  MetricsHttpServer server;
  server.Stop();  // not running: must be a no-op
  ASSERT_TRUE(server.Start(&reg, 0).ok());
  EXPECT_FALSE(server.Start(&reg, 0).ok());  // double start refused
  const int first_port = server.port();
  server.Stop();
  server.Stop();
  ASSERT_TRUE(server.Start(&reg, 0).ok());
  EXPECT_GT(server.port(), 0);
  EXPECT_FALSE(Get(server.port(), "/metrics").empty());
  (void)first_port;
  server.Stop();
}

TEST(MetricsHttpTest, IdleClientWedgesNeitherStopNorLaterRequests) {
  MetricsRegistry reg;
  reg.Counter("tuples_total")->Add(1);
  MetricsHttpServer server;
  ASSERT_TRUE(server.Start(&reg, 0).ok());

  // A client that connects and sends nothing; give the serve loop time to
  // accept it and start waiting for its request.
  int idle = Connect(server.port());
  ASSERT_GE(idle, 0);
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  // Stop() must return while the idle client holds its connection. The
  // watchdog closes the idle socket after 2 s either way, which unblocks a
  // serve loop stuck on it, so a regression fails here instead of hanging.
  std::future<void> stopped =
      std::async(std::launch::async, [&server] { server.Stop(); });
  const bool stopped_in_time =
      stopped.wait_for(std::chrono::seconds(2)) == std::future_status::ready;
  ::close(idle);
  stopped.get();
  EXPECT_TRUE(stopped_in_time)
      << "Stop() did not return within 2 s with an idle client connected";
  EXPECT_FALSE(server.running());

  // A normal scrape behind an idle client is still answered, once the
  // server has given up on the silent connection.
  ASSERT_TRUE(server.Start(&reg, 0).ok());
  idle = Connect(server.port());
  ASSERT_GE(idle, 0);
  std::future<std::string> scrape = std::async(
      std::launch::async, [&server] { return Get(server.port(), "/metrics"); });
  const bool answered_in_time =
      scrape.wait_for(std::chrono::seconds(4)) == std::future_status::ready;
  ::close(idle);  // watchdog, as above
  const std::string text = scrape.get();
  EXPECT_TRUE(answered_in_time)
      << "GET /metrics behind an idle client was not answered within 4 s";
  EXPECT_NE(text.find("200 OK"), std::string::npos);
  EXPECT_NE(text.find("tuples_total"), std::string::npos);
  server.Stop();
}

TEST(MetricsHttpTest, RejectsBadArguments) {
  MetricsRegistry reg;
  MetricsHttpServer server;
  EXPECT_FALSE(server.Start(nullptr, 0).ok());
  EXPECT_FALSE(server.Start(&reg, -1).ok());
  EXPECT_FALSE(server.Start(&reg, 65536).ok());
  EXPECT_FALSE(server.running());
}

}  // namespace
}  // namespace albic
