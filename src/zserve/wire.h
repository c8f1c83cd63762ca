/**
 * @file
 * The zserve wire protocol: a length-prefixed frame layer carrying
 * Ziria stream elements over a byte stream (TCP).
 *
 * Every frame is an 8-byte header followed by a payload:
 *
 *     offset  size  field
 *     0       1     magic0 'Z' (0x5A)
 *     1       1     magic1 'S' (0x53)
 *     2       1     type   (FrameType)
 *     3       1     flags  (must be 0 in version 1)
 *     4       4     payload length, unsigned little-endian
 *
 * Frame types:
 *   Hello  server -> client on accept; payload is u32le fields:
 *          protocol version (1), input element width, output element
 *          width, and (since the durable-checkpoint extension) the
 *          server's negotiated checkpoint payload cap.  A client uses
 *          the widths to size Data payloads.  Three sizes are valid:
 *          12 bytes (legacy, no cap), 16 bytes (greeting with cap) and
 *          24 bytes (resume acknowledgement: cap plus a u64le count of
 *          input elements the server already holds — the client resumes
 *          sending from that element).  Client -> server, a Hello is a
 *          session attach: u32le version, u64le output bytes already
 *          received, then the session key (1-64 chars, [A-Za-z0-9_.-]).
 *          It must be the first client frame; the server restores the
 *          keyed session from a live migration hand-off or the durable
 *          checkpoint store and replies with a 24-byte resume Hello.
 *   Data   stream elements; the payload length must be a non-zero
 *          multiple of the element width for its direction.
 *   End    end of stream.  Client -> server: no more input (the server
 *          drains the pipeline and answers with its own End).  Server ->
 *          client: all output has been sent; the connection closes next.
 *   Halt   server -> client before End when the pipeline's computation
 *          returned; the payload is the control value's bytes.
 *   Error  fatal condition; payload is a human-readable UTF-8 message.
 *          The sender closes the connection after an Error frame.
 *   Stat   live introspection.  Client -> server: empty payload,
 *          requesting statistics.  Server -> client: the response, a
 *          UTF-8 JSON document with the server's metric registry plus
 *          this session's latency percentiles and scheduler dwell.
 *   Checkpoint  zero-loss session migration (docs/ROBUSTNESS.md,
 *          "Checkpointing & migration").  Server -> client on drain:
 *          the payload is a session checkpoint — a versioned header
 *          (version, consumed, emitted, backlog element count), the
 *          pipeline state snapshot (zexec/snapshot.h) and the
 *          unconsumed input backlog; the connection closes next and
 *          the client resumes against another server.  Client ->
 *          server: must be the first client frame of a session; the
 *          server restores the pipeline from it, replays the backlog,
 *          and continues as if uninterrupted.
 *   Migrate  live session hand-off between running servers
 *          (docs/SERVING.md, "Live migration").  The first payload byte
 *          is a subtype: Request (operator -> source server: quiesce
 *          the keyed session and hand it to a peer), Transfer (source
 *          server -> peer, as a client on a fresh connection: the key
 *          plus the session checkpoint), Ack (peer -> source, and
 *          source -> operator: success flag plus a message), Redirect
 *          (source server -> the migrated session's data client: the
 *          peer's host and port to re-attach to).
 *
 * Payloads are capped per type (payloadCapFor) so a hostile or corrupted
 * length field cannot make the receiver allocate unbounded memory: 1 MiB
 * (kMaxPayload) for ordinary frames, kMaxCkptPayload for Checkpoint and
 * Migrate frames, which carry whole pipeline snapshots (large LUT or
 * Viterbi state).  The parser rejects bad magic, unknown types, non-zero
 * flags and oversized lengths with a sticky error instead of
 * resynchronizing (a desync on a stream socket is unrecoverable anyway).
 */
#ifndef ZIRIA_ZSERVE_WIRE_H
#define ZIRIA_ZSERVE_WIRE_H

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace ziria {
namespace serve {

constexpr uint8_t kMagic0 = 0x5A;  // 'Z'
constexpr uint8_t kMagic1 = 0x53;  // 'S'
constexpr uint32_t kProtocolVersion = 1;
constexpr size_t kHeaderBytes = 8;
/** Upper bound on ordinary frame payloads (1 MiB). */
constexpr size_t kMaxPayload = 1u << 20;
/**
 * Upper bound on Checkpoint/Migrate payloads (64 MiB): pipeline
 * snapshots carry LUT and Viterbi state that can exceed kMaxPayload.
 * The greeting Hello advertises this negotiated limit.
 */
constexpr size_t kMaxCkptPayload = 64u << 20;

enum class FrameType : uint8_t {
    Hello = 1,
    Data = 2,
    End = 3,
    Halt = 4,
    Error = 5,
    Stat = 6,
    Checkpoint = 7,
    Migrate = 8,
};

/** Migrate frame subtype — the first payload byte. */
enum class MigrateSub : uint8_t {
    Request = 1,
    Transfer = 2,
    Ack = 3,
    Redirect = 4,
};

/** Short lowercase name ("hello", "data", ...). */
const char* frameTypeName(FrameType t);

/** Session-key validity: 1-64 chars of [A-Za-z0-9_.-], no leading dot. */
bool validSessionKey(const std::string& key);

/** Payload cap for @p t (kMaxCkptPayload for Checkpoint/Migrate). */
size_t payloadCapFor(FrameType t);

/** One decoded frame. */
struct Frame
{
    FrameType type = FrameType::Data;
    std::vector<uint8_t> payload;
};

/** Append the encoded frame (header + payload) to @p out. */
void encodeFrame(std::vector<uint8_t>& out, FrameType type,
                 const uint8_t* payload, size_t len);

/** Convenience overloads. */
void encodeFrame(std::vector<uint8_t>& out, FrameType type,
                 const std::vector<uint8_t>& payload);
void encodeFrame(std::vector<uint8_t>& out, FrameType type);

/** Encode an Error frame carrying @p message. */
void encodeError(std::vector<uint8_t>& out, const std::string& message);

/** Encode the 16-byte greeting Hello (widths + checkpoint cap). */
void encodeHello(std::vector<uint8_t>& out, uint32_t in_width,
                 uint32_t out_width);

/**
 * Encode the 24-byte resume-acknowledgement Hello: widths, checkpoint
 * cap, and the count of input elements the server already holds
 * (consumed + backlog) — the client resumes sending from that element.
 */
void encodeHelloResume(std::vector<uint8_t>& out, uint32_t in_width,
                       uint32_t out_width, uint64_t resume_elems);

/** Fields of a decoded Hello payload (12/16/24-byte forms). */
struct HelloInfo
{
    uint32_t version = 0;
    uint32_t inWidth = 0;
    uint32_t outWidth = 0;
    uint32_t maxCkptPayload = 0;  ///< valid when hasCap
    uint64_t resumeElems = 0;     ///< valid when hasResume
    bool hasCap = false;
    bool hasResume = false;
};

/** Parse a Hello payload; false if it is malformed. */
bool decodeHello(const std::vector<uint8_t>& payload, HelloInfo& info);

/**
 * Encode a client -> server attach Hello payload: protocol version, the
 * output bytes this client has already received (0 for a fresh
 * session), and the session key.
 */
void encodeAttachHello(std::vector<uint8_t>& out, const std::string& key,
                       uint64_t received_bytes);

/** Parse an attach Hello payload; false if malformed. */
bool decodeAttachHello(const std::vector<uint8_t>& payload, std::string& key,
                       uint64_t& received_bytes);

/** Encode a Migrate Request: quiesce @p key, hand it to host:port. */
void encodeMigrateRequest(std::vector<uint8_t>& out, const std::string& key,
                          const std::string& host, uint16_t port);
bool decodeMigrateRequest(const std::vector<uint8_t>& payload,
                          std::string& key, std::string& host,
                          uint16_t& port);

/** Encode a Migrate Transfer: @p key plus its session checkpoint. */
void encodeMigrateTransfer(std::vector<uint8_t>& out, const std::string& key,
                           const std::vector<uint8_t>& ckpt);
bool decodeMigrateTransfer(const std::vector<uint8_t>& payload,
                           std::string& key, std::vector<uint8_t>& ckpt);

/** Encode a Migrate Ack (peer -> source, source -> operator). */
void encodeMigrateAck(std::vector<uint8_t>& out, bool ok,
                      const std::string& message);
bool decodeMigrateAck(const std::vector<uint8_t>& payload, bool& ok,
                      std::string& message);

/** Encode a Migrate Redirect (source -> data client: re-attach here). */
void encodeMigrateRedirect(std::vector<uint8_t>& out,
                           const std::string& host, uint16_t port);
bool decodeMigrateRedirect(const std::vector<uint8_t>& payload,
                           std::string& host, uint16_t& port);

/**
 * Incremental frame decoder for a byte stream.  Feed raw socket bytes
 * in any fragmentation; pull whole frames with next().  Errors are
 * sticky: after Result::Error the parser stays in the error state and
 * error() describes the first violation.
 */
class FrameParser
{
  public:
    enum class Result : uint8_t {
        NeedMore,  ///< no complete frame buffered yet
        Frame,     ///< one frame written to the out-parameter
        Error,     ///< protocol violation; see error()
    };

    /** Buffer @p n raw bytes from the peer. */
    void feed(const uint8_t* data, size_t n);

    /** Extract the next complete frame, if any. */
    Result next(Frame& out);

    /**
     * True when buffered bytes form an incomplete frame — detecting a
     * connection that closed mid-frame (truncated stream).
     */
    bool midFrame() const { return !failed_ && !buf_.empty(); }

    bool failed() const { return failed_; }
    const std::string& error() const { return error_; }

  private:
    Result fail(const std::string& msg);

    std::vector<uint8_t> buf_;
    size_t pos_ = 0;  // consumed prefix of buf_
    bool failed_ = false;
    std::string error_;
};

} // namespace serve
} // namespace ziria

#endif // ZIRIA_ZSERVE_WIRE_H
