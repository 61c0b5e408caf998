#include "net/servers.h"

#include <chrono>
#include <random>

#include "common/log.h"

namespace coic::net {
namespace {

/// DelayFn for live services: optionally sleep the calibrated duration,
/// then run inline on the calling thread.
core::DelayFn MakeDelayFn(bool simulate) {
  return [simulate](Duration d, std::function<void()> fn) {
    if (simulate && d > Duration::Zero()) {
      std::this_thread::sleep_for(std::chrono::microseconds(d.micros()));
    }
    fn();
  };
}

core::NowFn MakeNowFn() {
  return [] { return LiveClient::WallClock(); };
}

using proto::PeekRequestId;

}  // namespace

SimTime LiveClient::WallClock() noexcept {
  const auto now = std::chrono::steady_clock::now().time_since_epoch();
  return SimTime::FromMicros(
      std::chrono::duration_cast<std::chrono::microseconds>(now).count());
}

// ---------------------------------------------------------------------------
// CloudServer
// ---------------------------------------------------------------------------

CloudServer::CloudServer(ServerOptions options,
                         core::CloudService::Config service_config)
    : options_(options) {
  service_ = std::make_unique<core::CloudService>(
      service_config,
      [this](core::Peer /*to*/, Frame frame) {
        // Replies go to whichever connection is being served; the
        // service mutex is held for the whole request, so the target is
        // stable here.
        COIC_CHECK(current_reply_target_ != nullptr);
        const Status status = WriteFrame(*current_reply_target_, frame.span());
        if (!status.ok()) {
          COIC_LOG(kWarn) << "cloud: reply write failed: " << status.ToString();
        }
      },
      MakeDelayFn(options.simulate_compute_delays));
}

CloudServer::~CloudServer() { Stop(); }

Status CloudServer::Start() {
  auto listener = TcpListener::Bind(options_.listen);
  if (!listener.ok()) return listener.status();
  listener_ = std::make_unique<TcpListener>(std::move(listener).value());
  port_ = listener_->bound_port();
  accept_thread_ = std::thread([this] { AcceptLoop(); });
  return Status::Ok();
}

void CloudServer::AcceptLoop() {
  for (;;) {
    auto stream = listener_->Accept();
    if (!stream.ok()) return;  // listener closed
    auto shared = std::make_shared<TcpStream>(std::move(stream).value());
    std::lock_guard<std::mutex> lock(threads_mutex_);
    if (stopping_.load()) return;
    active_streams_.push_back(shared);
    connection_threads_.emplace_back(
        [this, shared] { ServeConnection(shared); });
  }
}

void CloudServer::ServeConnection(const std::shared_ptr<TcpStream>& stream) {
  for (;;) {
    auto frame = ReadFrame(*stream);
    if (!frame.ok()) return;  // peer closed or transport error
    std::lock_guard<std::mutex> lock(service_mutex_);
    current_reply_target_ = stream.get();
    service_->OnFrame(Frame::Own(std::move(frame).value()));
    current_reply_target_ = nullptr;
  }
}

void CloudServer::Stop() {
  if (stopping_.exchange(true)) return;
  if (listener_) listener_->Close();
  if (accept_thread_.joinable()) accept_thread_.join();
  listener_.reset();  // the accept thread is gone: release the fd
  std::vector<std::thread> threads;
  {
    std::lock_guard<std::mutex> lock(threads_mutex_);
    threads.swap(connection_threads_);
    // Unblock threads parked in recv() on still-open connections.
    for (auto& weak : active_streams_) {
      if (const auto stream = weak.lock()) stream->ShutdownBoth();
    }
    active_streams_.clear();
  }
  for (auto& t : threads) {
    if (t.joinable()) t.join();
  }
}

// ---------------------------------------------------------------------------
// EdgeServer
// ---------------------------------------------------------------------------

EdgeServer::EdgeServer(ServerOptions options,
                       core::EdgeService::Config service_config,
                       SocketAddress cloud_address)
    : options_(options), service_config_(service_config),
      cloud_address_(cloud_address) {}

EdgeServer::~EdgeServer() { Stop(); }

Status EdgeServer::Start() {
  auto upstream = TcpStream::Connect(cloud_address_);
  if (!upstream.ok()) return upstream.status();
  upstream_ = std::move(upstream).value();

  service_ = std::make_unique<core::EdgeService>(
      service_config_,
      [this](core::Peer to, Frame frame) {
        if (to == core::Peer::kCloud) {
          std::lock_guard<std::mutex> lock(upstream_write_mutex_);
          const Status status = WriteFrame(upstream_, frame.span());
          if (!status.ok()) {
            COIC_LOG(kWarn) << "edge: upstream write failed: "
                            << status.ToString();
          }
        } else {
          RouteToClient(frame);
        }
      },
      MakeDelayFn(options_.simulate_compute_delays), MakeNowFn());

  auto listener = TcpListener::Bind(options_.listen);
  if (!listener.ok()) return listener.status();
  listener_ = std::make_unique<TcpListener>(std::move(listener).value());
  port_ = listener_->bound_port();

  cloud_reply_thread_ = std::thread([this] { CloudReplyLoop(); });
  accept_thread_ = std::thread([this] { AcceptLoop(); });
  return Status::Ok();
}

void EdgeServer::AcceptLoop() {
  for (;;) {
    auto stream = listener_->Accept();
    if (!stream.ok()) return;
    std::lock_guard<std::mutex> lock(threads_mutex_);
    if (stopping_.load()) return;
    auto shared = std::make_shared<TcpStream>(std::move(stream).value());
    active_streams_.push_back(shared);
    connection_threads_.emplace_back(
        [this, shared] { ServeClient(shared); });
  }
}

void EdgeServer::ServeClient(std::shared_ptr<TcpStream> stream) {
  for (;;) {
    auto frame = ReadFrame(*stream);
    if (!frame.ok()) return;
    // Register the reply route before the service can answer.
    {
      std::lock_guard<std::mutex> lock(routes_mutex_);
      routes_[PeekRequestId(frame.value())] = stream;
    }
    std::lock_guard<std::mutex> lock(service_mutex_);
    service_->OnClientFrame(Frame::Own(std::move(frame).value()));
  }
}

void EdgeServer::RouteToClient(const Frame& frame) {
  const std::uint64_t request_id = PeekRequestId(frame.span());
  std::shared_ptr<TcpStream> target;
  {
    std::lock_guard<std::mutex> lock(routes_mutex_);
    const auto it = routes_.find(request_id);
    if (it != routes_.end()) {
      target = it->second;
      routes_.erase(it);  // one reply per request
    }
  }
  if (!target) {
    COIC_LOG(kWarn) << "edge: no route for reply " << request_id;
    return;
  }
  const Status status = WriteFrame(*target, frame.span());
  if (!status.ok()) {
    COIC_LOG(kWarn) << "edge: client write failed: " << status.ToString();
  }
}

void EdgeServer::CloudReplyLoop() {
  for (;;) {
    auto frame = ReadFrame(upstream_);
    if (!frame.ok()) return;  // upstream closed
    std::lock_guard<std::mutex> lock(service_mutex_);
    service_->OnCloudFrame(Frame::Own(std::move(frame).value()));
  }
}

void EdgeServer::Stop() {
  if (stopping_.exchange(true)) return;
  if (listener_) listener_->Close();
  upstream_.ShutdownBoth();  // unblocks CloudReplyLoop's recv
  if (accept_thread_.joinable()) accept_thread_.join();
  listener_.reset();  // the accept thread is gone: release the fd
  if (cloud_reply_thread_.joinable()) cloud_reply_thread_.join();
  std::vector<std::thread> threads;
  {
    std::lock_guard<std::mutex> lock(threads_mutex_);
    threads.swap(connection_threads_);
    for (auto& weak : active_streams_) {
      if (const auto stream = weak.lock()) stream->ShutdownBoth();
    }
    active_streams_.clear();
  }
  for (auto& t : threads) {
    if (t.joinable()) t.join();
  }
}

// ---------------------------------------------------------------------------
// LiveClient
// ---------------------------------------------------------------------------

LiveClient::LiveClient(TcpStream stream) : stream_(std::move(stream)) {}

Result<std::unique_ptr<LiveClient>> LiveClient::Connect(Options options) {
  auto stream = TcpStream::Connect(options.edge);
  if (!stream.ok()) return stream.status();

  auto live = std::unique_ptr<LiveClient>(
      new LiveClient(std::move(stream).value()));

  if (options.client.first_request_id == 1) {
    // Randomize the id space so concurrent clients never collide at the
    // edge's reply router.
    std::random_device rd;
    options.client.first_request_id =
        (static_cast<std::uint64_t>(rd()) << 32) ^ rd();
  }
  LiveClient* raw = live.get();
  live->client_ = std::make_unique<core::CoicClient>(
      options.client,
      [raw](Frame frame) {
        const Status status = WriteFrame(raw->stream_, frame.span());
        if (!status.ok()) raw->transport_error_ = status;
      },
      MakeDelayFn(/*simulate=*/false), MakeNowFn());
  return live;
}

Result<core::RequestOutcome> LiveClient::AwaitCompletion() {
  while (!done_) {
    if (!transport_error_.ok()) return transport_error_;
    auto frame = ReadFrame(stream_);
    if (!frame.ok()) return frame.status();
    client_->OnEdgeFrame(Frame::Own(std::move(frame).value()));
  }
  done_ = false;
  return outcome_;
}

Result<core::RequestOutcome> LiveClient::Recognize(
    const vision::SceneParams& scene, std::string expected_label) {
  client_->StartRecognition(scene, std::move(expected_label),
                            [this](core::RequestOutcome outcome) {
                              outcome_ = std::move(outcome);
                              done_ = true;
                            });
  return AwaitCompletion();
}

Result<core::RequestOutcome> LiveClient::LoadModel(std::uint64_t model_id,
                                                   const Digest128& digest) {
  client_->StartRender(model_id, digest, [this](core::RequestOutcome outcome) {
    outcome_ = std::move(outcome);
    done_ = true;
  });
  return AwaitCompletion();
}

Result<core::RequestOutcome> LiveClient::FetchPanorama(
    std::uint64_t video_id, std::uint32_t frame_index,
    const proto::Viewport& viewport) {
  client_->StartPanorama(video_id, frame_index, viewport,
                         [this](core::RequestOutcome outcome) {
                           outcome_ = std::move(outcome);
                           done_ = true;
                         });
  return AwaitCompletion();
}

}  // namespace coic::net
