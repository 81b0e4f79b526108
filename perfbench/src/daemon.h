#pragma once

// The in-process xiccd of the daemon workloads: xiccd's default
// ServerOptions except port 0 (ephemeral) and one worker, with one client
// connection. Two connections against two workers made sub-millisecond
// request rates swing by ±25% between identical runs; one connection and
// one worker held them within a few percent.

#include <memory>

#include "base/status.h"
#include "net/client.h"
#include "net/server.h"

namespace xbench {

class LocalDaemon {
 public:
  LocalDaemon() = default;
  LocalDaemon(const LocalDaemon&) = delete;
  LocalDaemon& operator=(const LocalDaemon&) = delete;

  /// Starts the server and connects one client. The measured workloads use
  /// one worker; the verdict record uses one per CPU.
  xicc::Status Start(size_t workers = 1) {
    xicc::net::ServerOptions options;
    options.port = 0;
    options.workers = workers;
    auto started = xicc::net::Server::Start(options);
    if (!started.ok()) return started.status();
    server_ = std::move(*started);
    return Reconnect();
  }

  /// Drains and joins the server (the destructor does the same).
  void Stop() {
    client_.reset();
    if (server_ != nullptr) {
      server_->RequestShutdown();
      server_->Wait();
      server_.reset();
    }
  }

  ~LocalDaemon() { Stop(); }

  xicc::net::Client& client() { return *client_; }
  xicc::net::Server& server() { return *server_; }

  /// (Re)connects the one client, e.g. after a transport failure.
  xicc::Status Reconnect() {
    auto client = NewClient();
    if (!client.ok()) return client.status();
    client_ = std::move(*client);
    return xicc::Status::Ok();
  }

  /// A further connection to the running server.
  xicc::Result<std::unique_ptr<xicc::net::Client>> NewClient() {
    xicc::net::ClientOptions copts;
    copts.port = server_->port();
    copts.io_timeout_ms = 30'000;
    auto client = xicc::net::Client::Connect(copts);
    if (!client.ok()) return client.status();
    return std::make_unique<xicc::net::Client>(std::move(*client));
  }

 private:
  std::unique_ptr<xicc::net::Server> server_;
  std::unique_ptr<xicc::net::Client> client_;
};

}  // namespace xbench
