// Transport front-ends of psn_serve: a stdio NDJSON loop and a local
// AF_UNIX socket server, both feeding one SweepService.
//
// Protocol (both transports): one JSON request per line in, one JSON
// response per line out. Responses may arrive out of request order (the
// service batches, coalesces, and runs groups concurrently); clients
// correlate by "id". Malformed lines get an immediate
// {"ok":false,"error":...} response — the process never dies on bad
// input. The stdio loop ends at EOF or after an admin shutdown request
// has been answered (clients send shutdown, then close their end); the
// socket server additionally serves any number of sequential or
// concurrent connections until shutdown.

#pragma once

#include <functional>
#include <iosfwd>
#include <string>

#include "psn/serve/service.hpp"

namespace psn::serve {

/// Handles one protocol line: parse, validate, enqueue. `write_line`
/// receives each response's canonical single-line serialization (without
/// the trailing newline) — asynchronously for admitted requests, and
/// synchronously for parse/validation errors. It must be callable from
/// the service's runner and dispatcher threads, concurrently, and
/// serialize its own writes. Returns true iff
/// the line admitted an admin shutdown request.
bool process_line(SweepService& service, const std::string& line,
                  std::function<void(const std::string&)> write_line);

/// Reads requests from `in` until EOF or an admitted shutdown, then
/// answers every admitted request, writing responses to `out`. Returns
/// the process exit code (0).
int run_stdio_server(SweepService& service, std::istream& in,
                     std::ostream& out);

/// Binds an AF_UNIX stream socket at `path` (unlinking any stale one) and
/// serves connections — one reader thread each — until an admin shutdown
/// is answered. Returns the process exit code (nonzero on socket setup
/// failure).
int run_socket_server(SweepService& service, const std::string& path);

}  // namespace psn::serve
