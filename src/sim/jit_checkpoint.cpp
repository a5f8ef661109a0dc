#include "sim/jit_checkpoint.hpp"

#include "trace/trace.hpp"

namespace gecko::sim {

namespace {

/** CRC over the context+epoch words plus the ACK value. */
std::uint32_t
imageCrc(const std::uint32_t* words, std::uint32_t ack)
{
    std::uint32_t crc = crc32Words(words, Nvm::kJitCrcIndex);
    return crc32Words(&ack, 1, crc);
}

}  // namespace

void
JitCheckpoint::noteSaveStart([[maybe_unused]] const Nvm& nvm,
                             [[maybe_unused]] int ramPaddingWords)
{
    // One start per call: the intermittent simulator calls once per
    // retry attempt, so retries show as start/retry pairs in the trace.
    GECKO_TRACE_EVENT(trace::EventKind::kJitSaveStart, 0,
                      nvm.jitEpoch + 1,
                      static_cast<std::uint64_t>(ramPaddingWords));
}

JitCheckpoint::Image
JitCheckpoint::assembleImage(const Machine& machine, const Nvm& nvm)
{
    // Write order: regs, pc, staged-I/O, epoch, CRC, ACK last.
    Image image{};
    std::size_t w = 0;
    for (int r = 0; r < 16; ++r)
        image[w++] = machine.regs()[static_cast<std::size_t>(r)];
    image[w++] = machine.pc();
    for (int p = 0; p < kIoPorts; ++p)
        image[w++] = machine.pendingIn()[static_cast<std::size_t>(p)];
    for (int p = 0; p < kIoPorts; ++p)
        image[w++] = machine.pendingOut()[static_cast<std::size_t>(p)];
    image[Nvm::kJitEpochIndex] = nvm.jitEpoch + 1;
    image[Nvm::kJitAckIndex] = nvm.jit[Nvm::kJitAckIndex] ^ 1u;
    image[Nvm::kJitCrcIndex] =
        imageCrc(image.data(), image[Nvm::kJitAckIndex]);
    return image;
}

void
JitCheckpoint::commitImage(Nvm& nvm, const Image& image, JitResult& result)
{
    // One more FRAM word write; a tear between the ACK and this write
    // only costs the roll-forward, never consistency.
    nvm.jitEpoch = image[Nvm::kJitEpochIndex];
    ++nvm.jitAreaWrites;
    result.cycles += kJitStoreCycles;
    result.complete = true;
    GECKO_TRACE_EVENT(trace::EventKind::kJitSaveCommit, 0, nvm.jitEpoch,
                      static_cast<std::uint64_t>(result.wordsWritten));
}

std::uint64_t
JitCheckpoint::restore(Machine& machine, const Nvm& nvm,
                       int ramPaddingWords)
{
    std::size_t w = 0;
    for (int r = 0; r < 16; ++r)
        machine.regs()[static_cast<std::size_t>(r)] = nvm.jit[w++];
    machine.setPc(nvm.jit[w++]);
    for (int p = 0; p < kIoPorts; ++p)
        machine.pendingIn()[static_cast<std::size_t>(p)] = nvm.jit[w++];
    for (int p = 0; p < kIoPorts; ++p)
        machine.pendingOut()[static_cast<std::size_t>(p)] = nvm.jit[w++];
    machine.clearHalt();
    machine.clearFault();
    return (static_cast<std::uint64_t>(Nvm::kJitWords) +
            static_cast<std::uint64_t>(ramPaddingWords)) *
               2 +
           kJitRestoreOverheadCycles;
}

bool
JitCheckpoint::imageValid(const Nvm& nvm)
{
    if (nvm.jit[Nvm::kJitEpochIndex] != nvm.jitEpoch)
        return false;
    return imageCrc(nvm.jit.data(), nvm.jit[Nvm::kJitAckIndex]) ==
           nvm.jit[Nvm::kJitCrcIndex];
}

void
JitCheckpoint::consumeImage(Nvm& nvm)
{
    nvm.jitEpoch = nvm.jit[Nvm::kJitEpochIndex] + 1;
    ++nvm.jitAreaWrites;
}

}  // namespace gecko::sim
