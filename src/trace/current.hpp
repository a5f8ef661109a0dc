#ifndef GECKO_TRACE_CURRENT_HPP_
#define GECKO_TRACE_CURRENT_HPP_

/**
 * @file
 * The thread's active trace buffer, split from trace.hpp so hot inline
 * simulator code (energy::Capacitor) can test "is tracing idle?" without
 * pulling the instrumentation macros into a public header.
 */

namespace gecko::trace {

class Buffer;

namespace detail {
/// The thread's active buffer.  `inline thread_local` so current() is a
/// raw TLS load at every macro site — an out-of-line call here costs
/// 20%+ on monitor-sample-heavy sims even with tracing idle.
inline thread_local Buffer* tCurrentBuffer = nullptr;
}  // namespace detail

/** The thread's active buffer (nullptr = tracing idle). */
inline Buffer*
current()
{
    return detail::tCurrentBuffer;
}

/** Install `buffer` as the thread's active buffer (nullptr to clear). */
inline void
setCurrent(Buffer* buffer)
{
    detail::tCurrentBuffer = buffer;
}

}  // namespace gecko::trace

#endif  // GECKO_TRACE_CURRENT_HPP_
