#include "net/server.hpp"

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>

#include <cerrno>
#include <stdexcept>

namespace dynsld::net {

RpcServer::RpcServer(engine::SldService& svc, Options opt)
    : svc_(svc), opt_(opt), obs_(svc.obs_shared()) {
  listen_ = tcp_listen(opt_.port);
  if (!listen_.valid())
    throw std::runtime_error("RpcServer: cannot bind 127.0.0.1:" +
                             std::to_string(opt_.port));
  port_ = local_port(listen_.get());
  set_nonblocking(listen_.get(), true);
  cq_ = std::make_shared<CompletionQueue>();
  if (svc_.persistence()) {
    repl_ = std::make_unique<ReplicationSource>(svc_);
    repl_->set_wakeup([this] { wake_.wake(); });
  }
  thread_ = std::thread([this] { loop(); });
}

RpcServer::~RpcServer() { stop(); }

void RpcServer::stop() {
  std::lock_guard<std::mutex> lk(stop_mu_);
  if (!thread_.joinable()) return;
  stopping_.store(true, std::memory_order_release);
  wake_.wake();
  thread_.join();
  if (repl_) repl_->set_wakeup({});
}

void RpcServer::loop() {
  bool draining = false;
  std::chrono::steady_clock::time_point drain_deadline{};
  std::vector<pollfd> pfds;
  std::vector<uint64_t> pfd_conn;  // conns_ key per pfd row (0 = fixed fd)

  for (;;) {
    if (stopping_.load(std::memory_order_acquire) && !draining) {
      draining = true;
      drain_deadline = std::chrono::steady_clock::now() + opt_.drain_timeout;
      listen_.reset();  // no new connections
      // The explicit drain wake: parked AtLeastEpoch waiters on an
      // idle engine would otherwise hold pending_ open forever.
      svc_.broker().abort_waiters();
    }
    if (draining) {
      bool flushed = true;
      for (auto& [id, c] : conns_)
        if (c.out_off < c.outbox.size()) flushed = false;
      if ((pending_.empty() && flushed) ||
          std::chrono::steady_clock::now() >= drain_deadline)
        break;
    }

    pfds.clear();
    pfd_conn.clear();
    if (listen_.valid()) {
      pfds.push_back({listen_.get(), POLLIN, 0});
      pfd_conn.push_back(0);
    }
    pfds.push_back({wake_.read_fd(), POLLIN, 0});
    pfd_conn.push_back(0);
    pfds.push_back({cq_->pipe.read_fd(), POLLIN, 0});
    pfd_conn.push_back(0);
    for (auto& [id, c] : conns_) {
      short ev = 0;
      // While draining, stop reading new requests; only flush replies.
      if (!draining) ev |= POLLIN;
      if (c.out_off < c.outbox.size()) ev |= POLLOUT;
      if (!ev) continue;
      pfds.push_back({c.fd.get(), ev, 0});
      pfd_conn.push_back(id);
    }

    ::poll(pfds.data(), pfds.size(), draining ? 10 : 100);

    wake_.drain();
    collect_completions();
    if (repl_ && !draining) fan_out_replication();

    std::vector<uint64_t> dead;
    for (size_t i = 0; i < pfds.size(); ++i) {
      if (pfd_conn[i] == 0) {
        if (listen_.valid() && pfds[i].fd == listen_.get() &&
            (pfds[i].revents & POLLIN))
          accept_ready();
        continue;
      }
      auto it = conns_.find(pfd_conn[i]);
      if (it == conns_.end()) continue;
      Conn& c = it->second;
      if (pfds[i].revents & (POLLERR | POLLHUP | POLLNVAL)) {
        dead.push_back(c.id);
        continue;
      }
      if (pfds[i].revents & POLLIN) {
        if (!read_ready(c)) {
          dead.push_back(c.id);
          continue;
        }
      }
      if (pfds[i].revents & POLLOUT) flush(c);
      if (c.outbox.size() - c.out_off > kMaxOutboxBytes) dead.push_back(c.id);
    }
    for (uint64_t id : dead) close_conn(id);
  }

  conns_.clear();
  conn_count_.store(0, std::memory_order_release);
}

void RpcServer::accept_ready() {
  for (;;) {
    int fd = ::accept(listen_.get(), nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      return;  // EAGAIN or transient failure: poll again later
    }
    set_nonblocking(fd, true);
    int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    Conn c;
    c.fd.reset(fd);
    c.id = next_conn_id_++;
    uint64_t id = c.id;
    conns_.emplace(id, std::move(c));
    conn_count_.store(conns_.size(), std::memory_order_release);
    if (obs_)
      obs_->stats.net_clients_accepted.fetch_add(1,
                                                 std::memory_order_relaxed);
  }
}

bool RpcServer::read_ready(Conn& c) {
  char buf[64 * 1024];
  for (;;) {
    long n = recv_some(c.fd.get(), buf, sizeof buf);
    if (n == 0) return false;  // orderly close
    if (n < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      return false;
    }
    if (obs_)
      obs_->stats.net_bytes_in.fetch_add(uint64_t(n),
                                         std::memory_order_relaxed);
    c.parser.feed(buf, static_cast<size_t>(n));
    if (static_cast<size_t>(n) < sizeof buf) break;  // drained the socket
  }
  for (;;) {
    Frame f;
    switch (c.parser.next(&f)) {
      case FrameParser::Status::kNeedMore:
        return true;
      case FrameParser::Status::kBad:
        // Poisoned framing: there is no resync — drop the connection.
        if (obs_)
          obs_->stats.net_frame_rejects.fetch_add(1,
                                                  std::memory_order_relaxed);
        return false;
      case FrameParser::Status::kFrame:
        if (obs_)
          obs_->stats.net_frames_in.fetch_add(1, std::memory_order_relaxed);
        if (!handle_frame(c, std::move(f))) return false;
        break;
    }
  }
}

bool RpcServer::handle_frame(Conn& c, Frame&& f) {
  auto send = [&](MsgType type, const std::string& payload) {
    c.outbox += encode_frame(type, payload);
    if (obs_) {
      obs_->stats.net_frames_out.fetch_add(1, std::memory_order_relaxed);
      obs_->stats.net_bytes_out.fetch_add(kFrameHeaderBytes + payload.size(),
                                          std::memory_order_relaxed);
    }
  };
  switch (f.type) {
    case MsgType::kPing:
      send(MsgType::kPong, f.payload);
      break;
    case MsgType::kHello: {
      Hello hello;
      if (!decode_hello(f.payload, &hello)) return false;
      if (hello.role == kRoleReplica && !repl_)
        return false;  // refuse: nothing durable to stream
      HelloAck ack;
      ack.epoch = svc_.epoch();
      ack.num_vertices = svc_.num_vertices();
      ack.num_shards = uint32_t(svc_.num_shards());
      send(MsgType::kHelloAck, encode_hello_ack(ack));
      if (hello.role == kRoleReplica) {
        c.is_replica = true;
        ReplicationSource::Bootstrap boot = repl_->bootstrap();
        send(MsgType::kCheckpoint, boot.checkpoint_bytes);
        c.repl_sent = boot.checkpoint_epoch;
        for (auto& [e, bytes] : boot.records) {
          send(MsgType::kWalRecord, bytes);
          c.repl_sent = e;
        }
      } else {
        c.client_id = hello.client_id;
        if (hello.client_id != 0)
          svc_.broker().set_client_weight(hello.client_id, hello.weight);
      }
      break;
    }
    case MsgType::kQuery: {
      uint64_t rid = 0;
      engine::QueryRequest req;
      if (!decode_query(f.payload, &rid, &req,
                        std::chrono::steady_clock::now())) {
        if (obs_)
          obs_->stats.net_frame_rejects.fetch_add(1,
                                                  std::memory_order_relaxed);
        return false;
      }
      req.client = c.client_id;
      // The hook may fire synchronously, on this thread (fast-fail
      // paths and inline answers) — before the pending_ insert below.
      // Safe: completions are only drained later in the same loop
      // iteration, by which time the entry exists.
      req.on_complete = [cq = cq_, cid = c.id, rid] { cq->push(cid, rid); };
      pending_[{c.id, rid}] = svc_.submit(std::move(req));
      break;
    }
    default:
      return false;  // server-bound stream has no other legal frames
  }
  flush(c);
  return true;
}

void RpcServer::collect_completions() {
  for (auto& [cid, rid] : cq_->drain()) {
    auto pit = pending_.find({cid, rid});
    if (pit == pending_.end()) continue;  // duplicate wake
    std::future<engine::ResultSet> fut = std::move(pit->second);
    pending_.erase(pit);
    auto cit = conns_.find(cid);
    std::string payload;
    MsgType type;
    try {
      // Ready by contract: on_complete fires after the promise
      // resolves, so this get() never blocks the poll thread.
      engine::ResultSet rs = fut.get();
      type = MsgType::kResult;
      payload = encode_result(rid, rs);
    } catch (const engine::QueryError& e) {
      type = MsgType::kError;
      payload = encode_error(rid, e.code());
    }
    if (cit == conns_.end()) continue;  // client hung up: drop the answer
    cit->second.outbox += encode_frame(type, payload);
    if (obs_) {
      obs_->stats.net_frames_out.fetch_add(1, std::memory_order_relaxed);
      obs_->stats.net_bytes_out.fetch_add(kFrameHeaderBytes + payload.size(),
                                          std::memory_order_relaxed);
    }
    flush(cit->second);
  }
}

void RpcServer::fan_out_replication() {
  for (auto& [id, c] : conns_) {
    if (!c.is_replica) continue;
    for (auto& [e, bytes] : repl_->records_after(c.repl_sent)) {
      c.outbox += encode_frame(MsgType::kWalRecord, bytes);
      c.repl_sent = e;
      if (obs_) {
        obs_->stats.net_frames_out.fetch_add(1, std::memory_order_relaxed);
        obs_->stats.net_bytes_out.fetch_add(kFrameHeaderBytes + bytes.size(),
                                            std::memory_order_relaxed);
      }
    }
    flush(c);
  }
}

void RpcServer::flush(Conn& c) {
  while (c.out_off < c.outbox.size()) {
    ssize_t w = ::send(c.fd.get(), c.outbox.data() + c.out_off,
                       c.outbox.size() - c.out_off, MSG_NOSIGNAL);
    if (w < 0) {
      if (errno == EINTR) continue;
      return;  // EAGAIN: poll for POLLOUT; real errors surface there too
    }
    c.out_off += static_cast<size_t>(w);
  }
  c.outbox.clear();
  c.out_off = 0;
}

void RpcServer::close_conn(uint64_t id) {
  conns_.erase(id);
  conn_count_.store(conns_.size(), std::memory_order_release);
}

}  // namespace dynsld::net
