// gkx::net — the wire codec and the blocking TCP front-end.
//   * Golden frame bytes: the exact encoding of a representative request is
//     pinned hex-byte-for-hex-byte (version byte, type byte, little-endian
//     lengths, CRC). A mismatch is a protocol break: bump kWireVersion.
//   * Round trips: every message type, every value kind (including NaN
//     payloads and signed zeros via raw IEEE-754 bits), fragment reports,
//     subtree edits, non-OK statuses.
//   * Rejection: wrong version, unknown type, truncated bodies, trailing
//     bytes, CRC mismatches, oversized size fields — all fail cleanly.
//   * Dispatch: the server's request→response mapping, without sockets.
//   * Loopback: a real server + client over 127.0.0.1 — register, query,
//     batch (answers byte-identical to in-process), update, stats, remove.

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "eval/value.hpp"
#include "net/client.hpp"
#include "net/frame.hpp"
#include "net/server.hpp"
#include "service/sharded_service.hpp"
#include "testkit/oracle.hpp"
#include "wal/record.hpp"
#include "xml/parser.hpp"

namespace gkx::net {
namespace {

std::string Hex(std::string_view bytes) {
  static const char* kDigits = "0123456789abcdef";
  std::string out;
  for (unsigned char c : bytes) {
    out.push_back(kDigits[c >> 4]);
    out.push_back(kDigits[c & 0xf]);
  }
  return out;
}

Message RoundTrip(const Message& message) {
  Result<Message> decoded = DecodeMessage(EncodeMessage(message));
  EXPECT_TRUE(decoded.ok()) << decoded.status().message();
  return decoded.ok() ? *decoded : Message{};
}

// ------------------------------------------------------------------ golden

TEST(NetCodecTest, GoldenSubmitPayloadBytes) {
  Message message;
  message.type = MsgType::kSubmit;
  message.requests.push_back({"doc7", "//a"});
  const std::string payload = EncodeMessage(message);
  // [01 version][02 kSubmit][04000000 "doc7"][03000000 "//a"]
  EXPECT_EQ(Hex(payload), "010204000000646f6337030000002f2f61");

  std::string frame;
  AppendFrame(payload, &frame);
  // [11000000 size][crc32 LE][payload]
  ASSERT_EQ(frame.size(), payload.size() + 8);
  uint32_t size = 0, crc = 0;
  std::memcpy(&size, frame.data(), 4);
  std::memcpy(&crc, frame.data() + 4, 4);
  EXPECT_EQ(size, payload.size());
  EXPECT_EQ(crc, wal::Crc32(payload.data(), payload.size()));
  EXPECT_EQ(frame.substr(8), payload);
}

TEST(NetCodecTest, GoldenTypeAndVersionBytes) {
  // The numeric type bytes are the protocol; enum reordering must not leak
  // onto the wire unnoticed.
  EXPECT_EQ(static_cast<int>(MsgType::kPing), 1);
  EXPECT_EQ(static_cast<int>(MsgType::kSubmit), 2);
  EXPECT_EQ(static_cast<int>(MsgType::kSubmitBatch), 3);
  EXPECT_EQ(static_cast<int>(MsgType::kRegisterXml), 4);
  EXPECT_EQ(static_cast<int>(MsgType::kUpdate), 5);
  EXPECT_EQ(static_cast<int>(MsgType::kRemove), 6);
  EXPECT_EQ(static_cast<int>(MsgType::kStats), 7);
  EXPECT_EQ(static_cast<int>(MsgType::kPong), 65);
  EXPECT_EQ(static_cast<int>(MsgType::kAnswer), 66);
  EXPECT_EQ(static_cast<int>(MsgType::kAnswerBatch), 67);
  EXPECT_EQ(static_cast<int>(MsgType::kStatusReply), 68);
  EXPECT_EQ(static_cast<int>(MsgType::kStatsReply), 69);
  EXPECT_EQ(kWireVersion, 1);
  EXPECT_EQ(EncodeMessage(Message{})[0], '\x01');  // version leads
}

// -------------------------------------------------------------- round trips

TEST(NetCodecTest, PingAndBatchRequestsRoundTrip) {
  Message ping;
  ping.type = MsgType::kPing;
  EXPECT_EQ(RoundTrip(ping).type, MsgType::kPing);

  Message batch;
  batch.type = MsgType::kSubmitBatch;
  for (int i = 0; i < 5; ++i) {
    batch.requests.push_back(
        {"doc" + std::to_string(i), "//a" + std::to_string(i)});
  }
  Message decoded = RoundTrip(batch);
  ASSERT_EQ(decoded.requests.size(), 5u);
  EXPECT_EQ(decoded.requests[3].doc_key, "doc3");
  EXPECT_EQ(decoded.requests[3].query, "//a3");
  // The client's encoder writes the same bytes straight from its requests.
  EXPECT_EQ(EncodeSubmitBatch(batch.requests), EncodeMessage(batch));
}

TEST(NetCodecTest, EveryValueKindRoundTripsExactly) {
  auto answer_of = [](eval::Value value) {
    Message message;
    message.type = MsgType::kAnswer;
    WireAnswer wire;
    wire.answer.value = std::move(value);
    wire.answer.evaluator = "pf-frontier";
    message.answers.push_back(std::move(wire));
    return message;
  };
  // Booleans.
  for (bool b : {true, false}) {
    Message decoded = RoundTrip(answer_of(eval::Value::Boolean(b)));
    ASSERT_EQ(decoded.answers.size(), 1u);
    EXPECT_EQ(decoded.answers[0].answer.value.boolean(), b);
    EXPECT_EQ(decoded.answers[0].answer.evaluator, "pf-frontier");
  }
  // Numbers: raw IEEE-754 bits — signed zero and NaN payloads survive.
  for (double n : {0.0, -0.0, 1.5, -273.15, 1e300,
                   std::numeric_limits<double>::infinity(),
                   std::numeric_limits<double>::quiet_NaN()}) {
    Message decoded = RoundTrip(answer_of(eval::Value::Number(n)));
    const double back = decoded.answers[0].answer.value.number();
    uint64_t want = 0, got = 0;
    std::memcpy(&want, &n, 8);
    std::memcpy(&got, &back, 8);
    EXPECT_EQ(got, want) << n;
  }
  // Strings, including embedded NULs and non-ASCII bytes.
  const std::string tricky("a\0b\xff\xc3\xa9", 6);
  EXPECT_EQ(RoundTrip(answer_of(eval::Value::String(tricky)))
                .answers[0]
                .answer.value.string(),
            tricky);
  // Node sets keep order and ids.
  eval::NodeSet nodes = {0, 3, 5, 2147483647};
  Message decoded = RoundTrip(answer_of(eval::Value::Nodes(nodes)));
  EXPECT_EQ(decoded.answers[0].answer.value.nodes(), nodes);
}

TEST(NetCodecTest, AnswerBatchMixesStatusesAndFragments) {
  Message message;
  message.type = MsgType::kAnswerBatch;
  WireAnswer ok;
  ok.answer.value = eval::Value::Number(42);
  ok.answer.evaluator = "core-linear";
  ok.answer.fragment.in_core = true;
  ok.answer.fragment.in_wf = true;
  ok.answer.fragment.smallest = xpath::Fragment::kCore;
  WireAnswer failed;
  failed.status = InvalidArgumentError("no such document");
  message.answers.push_back(ok);
  message.answers.push_back(failed);

  Message decoded = RoundTrip(message);
  ASSERT_EQ(decoded.answers.size(), 2u);
  EXPECT_TRUE(decoded.answers[0].status.ok());
  EXPECT_TRUE(decoded.answers[0].answer.fragment.in_core);
  EXPECT_FALSE(decoded.answers[0].answer.fragment.in_pf);
  EXPECT_TRUE(decoded.answers[0].answer.fragment.in_wf);
  EXPECT_EQ(decoded.answers[0].answer.fragment.smallest,
            xpath::Fragment::kCore);
  EXPECT_FALSE(decoded.answers[1].status.ok());
  EXPECT_EQ(decoded.answers[1].status.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(decoded.answers[1].status.message(), "no such document");
}

TEST(NetCodecTest, MutationsRoundTripIncludingSubtrees) {
  Message reg;
  reg.type = MsgType::kRegisterXml;
  reg.doc_key = "doc1";
  reg.text = "<r><a>x</a></r>";
  Message decoded = RoundTrip(reg);
  EXPECT_EQ(decoded.doc_key, "doc1");
  EXPECT_EQ(decoded.text, "<r><a>x</a></r>");

  Message update;
  update.type = MsgType::kUpdate;
  update.doc_key = "doc1";
  update.edit.kind = xml::SubtreeEdit::Kind::kInsertSubtree;
  update.edit.target = 0;
  update.edit.position = 1;
  auto subtree = xml::ParseDocument("<n><m>deep</m></n>");
  ASSERT_TRUE(subtree.ok());
  update.edit.subtree = std::move(*subtree);
  decoded = RoundTrip(update);
  EXPECT_EQ(decoded.edit.kind, xml::SubtreeEdit::Kind::kInsertSubtree);
  EXPECT_EQ(decoded.edit.position, 1);
  ASSERT_FALSE(decoded.edit.subtree.empty());
  EXPECT_TRUE(decoded.edit.subtree.StructurallyEquals(update.edit.subtree));

  Message relabel;
  relabel.type = MsgType::kUpdate;
  relabel.doc_key = "doc2";
  relabel.edit.kind = xml::SubtreeEdit::Kind::kRelabel;
  relabel.edit.target = 3;
  relabel.edit.label = "renamed";
  decoded = RoundTrip(relabel);
  EXPECT_EQ(decoded.edit.kind, xml::SubtreeEdit::Kind::kRelabel);
  EXPECT_EQ(decoded.edit.target, 3);
  EXPECT_EQ(decoded.edit.label, "renamed");
  EXPECT_TRUE(decoded.edit.subtree.empty());

  Message stats;
  stats.type = MsgType::kStats;
  stats.stats_format = 1;
  EXPECT_EQ(RoundTrip(stats).stats_format, 1);

  Message reply;
  reply.type = MsgType::kStatsReply;
  reply.text = "{\"schema\": \"gkx-stats-v2\"}";
  EXPECT_EQ(RoundTrip(reply).text, reply.text);
}

// --------------------------------------------------------------- rejection

TEST(NetCodecTest, RejectsMalformedPayloads) {
  Message message;
  message.type = MsgType::kSubmit;
  message.requests.push_back({"doc0", "//a"});
  const std::string good = EncodeMessage(message);

  auto expect_reject = [](std::string payload, const char* what) {
    Result<Message> decoded = DecodeMessage(payload);
    EXPECT_FALSE(decoded.ok()) << what;
  };
  expect_reject("", "empty");
  expect_reject("\x01", "type byte missing");
  std::string wrong_version = good;
  wrong_version[0] = '\x02';
  expect_reject(wrong_version, "future version");
  std::string unknown_type = good;
  unknown_type[1] = '\x7f';
  expect_reject(unknown_type, "unknown type");
  expect_reject(good.substr(0, good.size() - 1), "truncated body");
  expect_reject(good + "x", "trailing bytes");
  std::string huge_length = good;
  huge_length[2] = '\xff';  // doc_key length now bogus
  huge_length[3] = '\xff';
  expect_reject(huge_length, "length past end");
}

/// [version][type][u32 count = 0xFFFFFFFF] and nothing after it.
std::string HostileBatchPayload(MsgType type) {
  return std::string{static_cast<char>(kWireVersion), static_cast<char>(type),
                     '\xff', '\xff', '\xff', '\xff'};
}

TEST(NetCodecTest, RejectsBatchCountsThePayloadCannotHold) {
  // A count no payload of this size could hold is rejected before anything
  // is sized by it — not a 2^32-element reserve.
  for (MsgType type : {MsgType::kSubmitBatch, MsgType::kAnswerBatch}) {
    Result<Message> decoded = DecodeMessage(HostileBatchPayload(type));
    ASSERT_FALSE(decoded.ok()) << static_cast<int>(type);
    EXPECT_EQ(decoded.status().code(), StatusCode::kInvalidArgument);
  }
  // The bound is exact: one smallest request (two empty strings) fits a
  // count of 1 and not of 2.
  std::string one = {static_cast<char>(kWireVersion),
                     static_cast<char>(MsgType::kSubmitBatch), 1, 0, 0, 0};
  one.append(8, '\0');
  Result<Message> decoded = DecodeMessage(one);
  ASSERT_TRUE(decoded.ok()) << decoded.status().message();
  EXPECT_EQ(decoded->requests.size(), 1u);
  one[2] = 2;
  EXPECT_FALSE(DecodeMessage(one).ok());
}

TEST(NetCodecTest, StreamIoRejectsCorruptionAndHonorsCleanEof) {
  // A pipe gives the stream helpers a real fd without sockets.
  int fds[2];
  ASSERT_EQ(::pipe(fds), 0);
  Message message;
  message.type = MsgType::kSubmit;
  message.requests.push_back({"doc0", "//a"});
  const std::string payload = EncodeMessage(message);

  ASSERT_TRUE(WriteFrame(fds[1], payload).ok());
  bool clean_eof = false;
  Result<std::string> read_back = ReadFrame(fds[0], &clean_eof);
  ASSERT_TRUE(read_back.ok());
  EXPECT_FALSE(clean_eof);
  EXPECT_EQ(*read_back, payload);

  // Bit flip inside the payload → CRC mismatch.
  std::string frame;
  AppendFrame(payload, &frame);
  frame[10] ^= 0x40;
  ASSERT_EQ(::write(fds[1], frame.data(), frame.size()),
            static_cast<ssize_t>(frame.size()));
  Result<std::string> corrupted = ReadFrame(fds[0], &clean_eof);
  ASSERT_FALSE(corrupted.ok());
  EXPECT_NE(corrupted.status().message().find("CRC"), std::string::npos);

  // Oversized size field → rejected before any allocation.
  std::string bomb(8, '\0');
  uint32_t size = 0x7fffffff;
  std::memcpy(bomb.data(), &size, 4);
  ASSERT_EQ(::write(fds[1], bomb.data(), bomb.size()),
            static_cast<ssize_t>(bomb.size()));
  EXPECT_FALSE(ReadFrame(fds[0], &clean_eof).ok());

  // Half a header then EOF → error, not clean EOF.
  ASSERT_EQ(::write(fds[1], "abc", 3), 3);
  ::close(fds[1]);
  clean_eof = false;
  EXPECT_FALSE(ReadFrame(fds[0], &clean_eof).ok());
  EXPECT_FALSE(clean_eof);

  // Clean EOF before the first byte.
  int fds2[2];
  ASSERT_EQ(::pipe(fds2), 0);
  ::close(fds2[1]);
  clean_eof = false;
  Result<std::string> eof = ReadFrame(fds2[0], &clean_eof);
  ASSERT_TRUE(eof.ok());
  EXPECT_TRUE(clean_eof);
  EXPECT_TRUE(eof->empty());
  ::close(fds[0]);
  ::close(fds2[0]);
}

// ---------------------------------------------------------------- dispatch

TEST(NetCodecTest, DispatchMapsRequestsWithoutSockets) {
  service::ShardedQueryService::Options options;
  options.shards = 2;
  service::ShardedQueryService service(options);
  Server server(&service, {});

  Message reg;
  reg.type = MsgType::kRegisterXml;
  reg.doc_key = "doc0";
  reg.text = "<r><a>x</a><a>y</a></r>";
  Message reply = server.Dispatch(reg);
  EXPECT_EQ(reply.type, MsgType::kStatusReply);
  EXPECT_TRUE(reply.status.ok()) << reply.status.message();

  Message ping;
  ping.type = MsgType::kPing;
  EXPECT_EQ(server.Dispatch(ping).type, MsgType::kPong);

  Message submit;
  submit.type = MsgType::kSubmit;
  submit.requests.push_back({"doc0", "count(//a)"});
  reply = server.Dispatch(submit);
  ASSERT_EQ(reply.type, MsgType::kAnswer);
  ASSERT_EQ(reply.answers.size(), 1u);
  ASSERT_TRUE(reply.answers[0].status.ok());
  EXPECT_EQ(reply.answers[0].answer.value.number(), 2.0);

  Message missing;
  missing.type = MsgType::kSubmit;
  missing.requests.push_back({"ghost", "//a"});
  reply = server.Dispatch(missing);
  ASSERT_EQ(reply.type, MsgType::kAnswer);
  EXPECT_FALSE(reply.answers[0].status.ok());

  Message remove;
  remove.type = MsgType::kRemove;
  remove.doc_key = "ghost";
  reply = server.Dispatch(remove);
  EXPECT_EQ(reply.type, MsgType::kStatusReply);
  EXPECT_FALSE(reply.status.ok());
  remove.doc_key = "doc0";
  EXPECT_TRUE(server.Dispatch(remove).status.ok());

  // A response type arriving as a request is a protocol violation.
  Message bogus;
  bogus.type = MsgType::kPong;
  reply = server.Dispatch(bogus);
  EXPECT_EQ(reply.type, MsgType::kStatusReply);
  EXPECT_FALSE(reply.status.ok());
}

// ---------------------------------------------------------------- loopback

TEST(NetCodecTest, LoopbackServesQueriesByteIdenticalToInProcess) {
  service::ShardedQueryService::Options options;
  options.shards = 2;
  service::ShardedQueryService service(options);
  Server server(&service, {});
  Status started = server.Start();
  ASSERT_TRUE(started.ok()) << started.message();
  ASSERT_NE(server.port(), 0);

  Client client;
  Status connected = client.Connect("127.0.0.1", server.port());
  ASSERT_TRUE(connected.ok()) << connected.message();
  ASSERT_TRUE(client.Ping().ok());

  // Register over the wire; corpus is visible in-process immediately.
  for (int k = 0; k < 6; ++k) {
    const std::string t = std::to_string(k);
    Status reg = client.RegisterXml(
        "doc" + t, "<d" + t + "><a" + t + ">x</a" + t + "><a" + t + ">y</a" +
                       t + "></d" + t + ">");
    ASSERT_TRUE(reg.ok()) << reg.message();
  }
  EXPECT_EQ(service.document_count(), 6u);

  // Wire answers must digest identically to in-process answers.
  std::vector<WireRequest> wire_requests;
  std::vector<service::ShardedQueryService::Request> local_requests;
  for (int k = 0; k < 6; ++k) {
    const std::string t = std::to_string(k);
    wire_requests.push_back({"doc" + t, "//a" + t});
    wire_requests.push_back({"doc" + t, "count(//a" + t + ")"});
    local_requests.push_back({"doc" + t, "//a" + t});
    local_requests.push_back({"doc" + t, "count(//a" + t + ")"});
  }
  auto wire_answers = client.SubmitBatch(wire_requests);
  auto local_answers = service.SubmitBatch(local_requests);
  ASSERT_EQ(wire_answers.size(), local_answers.size());
  for (size_t i = 0; i < wire_answers.size(); ++i) {
    ASSERT_TRUE(wire_answers[i].ok()) << wire_answers[i].status().message();
    ASSERT_TRUE(local_answers[i].ok());
    EXPECT_EQ(testkit::AnswerDigest(wire_answers[i]->value),
              testkit::AnswerDigest(local_answers[i]->value))
        << i;
    EXPECT_EQ(wire_answers[i]->evaluator, local_answers[i]->evaluator) << i;
  }

  // A wire update is observed by the next wire read.
  xml::SubtreeEdit edit;
  edit.kind = xml::SubtreeEdit::Kind::kInsertSubtree;
  edit.target = 0;
  edit.position = 0;
  auto subtree = xml::ParseDocument("<a0>z</a0>");
  ASSERT_TRUE(subtree.ok());
  edit.subtree = std::move(*subtree);
  ASSERT_TRUE(client.UpdateDocument("doc0", edit).ok());
  Result<Client::Answer> counted = client.Submit("doc0", "count(//a0)");
  ASSERT_TRUE(counted.ok());
  EXPECT_EQ(counted->value.number(), 3.0);

  // Per-request failures stay per-request over the wire too.
  auto mixed = client.SubmitBatch({{"doc1", "//a1"}, {"ghost", "//a1"}});
  ASSERT_EQ(mixed.size(), 2u);
  EXPECT_TRUE(mixed[0].ok());
  EXPECT_FALSE(mixed[1].ok());

  Result<std::string> stats = client.ExportStats(service::StatsFormat::kJson);
  ASSERT_TRUE(stats.ok());
  EXPECT_NE(stats->find("\"gkx-stats-v2\""), std::string::npos);
  EXPECT_NE(stats->find("\"shards\""), std::string::npos);

  ASSERT_TRUE(client.RemoveDocument("doc5").ok());
  EXPECT_FALSE(client.RemoveDocument("doc5").ok());
  EXPECT_EQ(service.document_count(), 5u);

  // A second client gets its own connection thread.
  Client second;
  ASSERT_TRUE(second.Connect("127.0.0.1", server.port()).ok());
  EXPECT_TRUE(second.Ping().ok());
  second.Close();

  client.Close();
  server.Stop();
}

/// A raw loopback connection to `server`, for frames the Client would
/// never send.
class RawConnection {
 public:
  explicit RawConnection(const Server& server)
      : fd_(::socket(AF_INET, SOCK_STREAM, 0)) {
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(server.port());
    EXPECT_EQ(::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr), 1);
    EXPECT_EQ(
        ::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
  }
  ~RawConnection() { ::close(fd_); }
  RawConnection(const RawConnection&) = delete;
  RawConnection& operator=(const RawConnection&) = delete;

  /// Writes raw bytes: a frame, part of one, or a lie.
  void Send(std::string_view bytes) {
    ASSERT_EQ(::write(fd_, bytes.data(), bytes.size()),
              static_cast<ssize_t>(bytes.size()));
  }

  Result<Message> RoundTrip(std::string_view payload) {
    GKX_RETURN_IF_ERROR(WriteFrame(fd_, payload));
    bool eof = false;
    std::string reply;
    GKX_ASSIGN_OR_RETURN(reply, ReadFrame(fd_, &eof));
    if (eof) return InternalError("server closed the connection");
    return DecodeMessage(reply);
  }

  /// The server and this connection keep serving.
  void ExpectPong() {
    Message ping;
    ping.type = MsgType::kPing;
    Result<Message> reply = RoundTrip(EncodeMessage(ping));
    ASSERT_TRUE(reply.ok()) << reply.status().message();
    EXPECT_EQ(reply->type, MsgType::kPong);
  }

 private:
  int fd_;
};

TEST(NetCodecTest, LoopbackAnswersAHostileBatchCountAndKeepsServing) {
  service::ShardedQueryService service;
  Server server(&service, {});
  ASSERT_TRUE(server.Start().ok());
  RawConnection connection(server);

  // One 14-byte frame declaring 2^32-1 requests: a typed error reply.
  Result<Message> reply =
      connection.RoundTrip(HostileBatchPayload(MsgType::kSubmitBatch));
  ASSERT_TRUE(reply.ok()) << reply.status().message();
  EXPECT_EQ(reply->type, MsgType::kStatusReply);
  EXPECT_EQ(reply->status.code(), StatusCode::kInvalidArgument);
  connection.ExpectPong();
  server.Stop();
}

TEST(NetCodecTest, LoopbackAnswersADeeplyNestedQueryAndKeepsServing) {
  service::ShardedQueryService service;
  ASSERT_TRUE(service.RegisterXml("d", "<a><a><b/></a></a>").ok());
  Server server(&service, {});
  ASSERT_TRUE(server.Start().ok());
  RawConnection connection(server);

  // 3,000 nested predicates in one 9,001-byte query: past the parser's
  // nesting bound, so the answer is a typed error instead of a stack
  // overflow that takes the whole server process down.
  Message submit;
  submit.type = MsgType::kSubmit;
  std::string query;
  for (int i = 0; i < 3000; ++i) query += "a[";
  query += "b";
  query.append(3000, ']');
  ASSERT_EQ(query.size(), 9001u);
  submit.requests.push_back({"d", query});
  Result<Message> reply = connection.RoundTrip(EncodeMessage(submit));
  ASSERT_TRUE(reply.ok()) << reply.status().message();
  EXPECT_EQ(reply->type, MsgType::kAnswer);
  ASSERT_EQ(reply->answers.size(), 1u);
  EXPECT_EQ(reply->answers[0].status.code(), StatusCode::kInvalidArgument)
      << reply->answers[0].status.ToString();
  connection.ExpectPong();
  server.Stop();
}

/// A numeric field of /proc/self/status: "VmRSS" and "VmSize" in KiB,
/// "Threads" as a count.
int64_t ProcStatus(const std::string& field) {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind(field + ":", 0) == 0) {
      return std::stoll(line.substr(field.size() + 1));
    }
  }
  ADD_FAILURE() << "no " << field << " in /proc/self/status";
  return 0;
}

TEST(NetCodecTest, LoopbackLyingFrameHeaderCommitsOnlyWhatArrives) {
  service::ShardedQueryService service;
  Server server(&service, {});
  ASSERT_TRUE(server.Start().ok());
  const int64_t rss_before = ProcStatus("VmRSS");
  {
    // A header declaring a 256 MiB payload, followed by 10 bytes of it.
    // The connection stays open: the server must hold memory for what
    // arrived, not for what the header claims.
    RawConnection liar(server);
    std::string lie(wal::kFrameHeaderBytes, '\0');
    const uint32_t declared = uint32_t{256} << 20;
    std::memcpy(lie.data(), &declared, sizeof(declared));
    lie.append(10, 'x');
    liar.Send(lie);
    int64_t growth = 0;
    for (int i = 0; i < 50 && growth < (32 << 10); ++i) {
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
      growth = ProcStatus("VmRSS") - rss_before;
    }
    EXPECT_LT(growth, 32 << 10) << "KiB of RSS for a 10-byte body";
    RawConnection fresh(server);
    fresh.ExpectPong();
  }
  server.Stop();
}

TEST(NetCodecTest, LoopbackReapsFinishedConnections) {
  service::ShardedQueryService service;
  Server server(&service, {});
  ASSERT_TRUE(server.Start().ok());
  // One connect / ping / close cycle, returning once the connection's
  // thread has exited: the process is down one thread from while it
  // served. A thread that starts while another is still exiting reserves a
  // malloc arena of its own (64 MiB of address space), which VmSize would
  // count. The exited thread stays un-joined until the accept loop reaps
  // it at the next accept.
  auto cycle = [&server] {
    int64_t serving_threads = 0;
    {
      RawConnection connection(server);
      connection.ExpectPong();
      serving_threads = ProcStatus("Threads");
    }
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(1);
    while (ProcStatus("Threads") >= serving_threads &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
  };
  cycle();
  const int64_t vm_before = ProcStatus("VmSize");
  for (int i = 0; i < 200; ++i) cycle();
  // Each connection thread owns a stack (8 MiB by default) until it is
  // joined: 200 un-joined threads would add 1,600 MiB.
  EXPECT_LT(ProcStatus("VmSize") - vm_before, 256 << 10)
      << "KiB of address space after 200 closed connections";
  server.Stop();
}

}  // namespace
}  // namespace gkx::net
