/**
 * @file
 * MESI coherence state and transition helpers shared by the cache tag
 * stores and the memory system's coherence transactions.
 */

#ifndef OSCAR_MEM_COHERENCE_HH_
#define OSCAR_MEM_COHERENCE_HH_

#include <cstdint>

namespace oscar
{

/** Classic MESI line states. */
enum class MesiState : std::uint8_t
{
    Invalid,
    Shared,
    Exclusive,
    Modified,
};

/** True for states that permit a local read without coherence action. */
constexpr bool
canRead(MesiState s)
{
    return s != MesiState::Invalid;
}

/** True for states that permit a local write without coherence action. */
constexpr bool
canWrite(MesiState s)
{
    return s == MesiState::Exclusive || s == MesiState::Modified;
}

/** Human-readable name for traces and tests. */
constexpr const char *
mesiName(MesiState s)
{
    switch (s) {
      case MesiState::Invalid: return "I";
      case MesiState::Shared: return "S";
      case MesiState::Exclusive: return "E";
      case MesiState::Modified: return "M";
    }
    return "?";
}

} // namespace oscar

#endif // OSCAR_MEM_COHERENCE_HH_
