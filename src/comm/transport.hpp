// Transport abstraction and the in-process thread backend.
#pragma once

#include <atomic>
#include <chrono>
#include <memory>
#include <optional>
#include <vector>

#include "comm/message.hpp"
#include "util/channel.hpp"

namespace fdml {

/// One endpoint of a message fabric. Ranks follow the paper's layout:
/// 0 = master, 1 = foreman, 2.. = workers.
class Transport {
 public:
  virtual ~Transport() = default;

  virtual int rank() const = 0;
  virtual int size() const = 0;

  /// Sends `payload` to `dest`. Never blocks on the receiver.
  virtual void send(int dest, MessageTag tag,
                    std::vector<std::uint8_t> payload) = 0;

  /// Blocks until a message arrives; nullopt when the fabric is shut down.
  virtual std::optional<Message> recv() = 0;

  /// Blocks up to `timeout`; nullopt on timeout or shutdown.
  virtual std::optional<Message> recv_for(std::chrono::milliseconds timeout) = 0;

  /// True once the fabric has shut down (receivers will never block again).
  virtual bool closed() const = 0;
};

/// In-process fabric: each rank owns a Channel<Message>; endpoints are
/// handed to role threads. Closing the fabric releases all blocked
/// receivers.
class ThreadFabric {
 public:
  explicit ThreadFabric(int size);
  ~ThreadFabric();

  ThreadFabric(const ThreadFabric&) = delete;
  ThreadFabric& operator=(const ThreadFabric&) = delete;

  int size() const { return static_cast<int>(mailboxes_.size()); }

  /// Endpoint for `rank`. Endpoints borrow the fabric; the fabric must
  /// outlive them.
  std::unique_ptr<Transport> endpoint(int rank);

  /// Closes every mailbox (receivers drain then observe shutdown).
  void close();

  /// Total messages and bytes that have crossed the fabric (monitoring).
  std::uint64_t messages_sent() const;
  std::uint64_t bytes_sent() const;

 private:
  friend class ThreadEndpoint;

  std::vector<std::unique_ptr<Channel<Message>>> mailboxes_;
  std::atomic<std::uint64_t> messages_{0};
  std::atomic<std::uint64_t> bytes_{0};
};

}  // namespace fdml
