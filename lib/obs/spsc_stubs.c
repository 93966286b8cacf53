/* Single-producer single-consumer byte rings in a shared mapping of a
   memfd, and the one-byte socket doorbell that wakes a parked peer.

   A ring is a 128-byte header and [cap] data bytes.  The header keeps
   what each side writes on its own cache line: the producer's [head]
   (bytes ever published) and [writer_parked], the consumer's [tail]
   (bytes ever consumed) and [reader_parked].  A fresh memfd reads as
   all zeros, so a ring needs no initialising write: the process that
   makes the rings never touches their pages.

   The indices are the whole protocol.  A copy in publishes its bytes
   with a release store of [head]; a copy out reads [head] with
   acquire, so it sees the bytes, and frees them with a store of
   [tail].  Parking is the store-buffering pattern with sequentially
   consistent accesses on both sides:

     waiter:  parked = 1;  then read the other side's index
     peer:    store its index;  then read [parked]

   At least one side sees the other's store, so either the waiter
   finds the bytes (or the room) and does not park, or the peer sees
   [parked], clears it and rings the doorbell.  No wake-up is lost.

   Every entry point is noalloc: it reads and writes the mapping and
   the given [bytes], and returns a tagged int. */

#define _GNU_SOURCE
#include <caml/fail.h>
#include <caml/mlvalues.h>
#include <errno.h>
#include <stddef.h>
#include <stdint.h>
#include <string.h>
#include <sys/mman.h>
#include <sys/socket.h>
#include <unistd.h>

struct ring {
  uint64_t head;
  uint32_t writer_parked;
  char pad0[64 - sizeof(uint64_t) - sizeof(uint32_t)];
  uint64_t tail;
  uint32_t reader_parked;
  char pad1[64 - sizeof(uint64_t) - sizeof(uint32_t)];
  unsigned char data[];
};

_Static_assert(sizeof(struct ring) == 128, "ring header is two cache lines");
_Static_assert(offsetof(struct ring, tail) == 64, "tail on its own line");

#define RING(v) ((struct ring *)Long_val(v))

CAMLprim value mimd_spsc_header_bytes(value unit)
{
  (void)unit;
  return Val_long(sizeof(struct ring));
}

/* A fresh close-on-exec memfd of [bytes], all holes: a process that
   inherits its descriptor maps the same rings. */
CAMLprim value mimd_spsc_memfd(value bytes)
{
  int fd = memfd_create("mimd-rings", MFD_CLOEXEC);
  if (fd < 0) caml_failwith("Spsc.map: memfd_create failed");
  if (ftruncate(fd, (off_t)Long_val(bytes)) != 0) {
    close(fd);
    caml_failwith("Spsc.map: ftruncate failed");
  }
  return Val_int(fd);
}

/* The address of a shared mapping of [bytes] of memfd [fd], or 0.
   MAP_NORESERVE: only the pages a ring's bytes pass through are ever
   backed. */
CAMLprim value mimd_spsc_map(value fd, value bytes)
{
  void *p = mmap(NULL, (size_t)Long_val(bytes), PROT_READ | PROT_WRITE,
                 MAP_SHARED | MAP_NORESERVE, Int_val(fd), 0);
  return Val_long(p == MAP_FAILED ? 0 : (intnat)p);
}

CAMLprim value mimd_spsc_unmap(value addr, value bytes)
{
  munmap((void *)Long_val(addr), (size_t)Long_val(bytes));
  return Val_unit;
}

/* Clear a parked flag the other side set, and say whether it was set:
   the caller then rings the doorbell once for that park. */
static int take_parked(uint32_t *flag)
{
  return __atomic_load_n(flag, __ATOMIC_SEQ_CST)
         && __atomic_exchange_n(flag, 0, __ATOMIC_SEQ_CST);
}

/* Copy up to [len] bytes of [buf] from [off] into the ring.  Returns
   (copied << 1) | bell, where bell means the reader was parked and
   the caller must ring it. */
CAMLprim value mimd_spsc_write(value ring, value cap, value buf, value off, value len)
{
  struct ring *r = RING(ring);
  uint64_t c = (uint64_t)Long_val(cap);
  uint64_t head = __atomic_load_n(&r->head, __ATOMIC_RELAXED);
  uint64_t tail = __atomic_load_n(&r->tail, __ATOMIC_ACQUIRE);
  uint64_t n = c - (head - tail);
  if (n > (uint64_t)Long_val(len)) n = (uint64_t)Long_val(len);
  if (n == 0) return Val_long(0);
  uint64_t at = head % c, first = c - at < n ? c - at : n;
  const unsigned char *src = Bytes_val(buf) + Long_val(off);
  memcpy(r->data + at, src, first);
  memcpy(r->data, src + first, n - first);
  __atomic_store_n(&r->head, head + n, __ATOMIC_SEQ_CST);
  return Val_long((intnat)(n << 1) | take_parked(&r->reader_parked));
}

/* Copy up to [len] available bytes out of the ring into [buf] at
   [off].  Returns (copied << 1) | bell, where bell means the writer
   was parked on a full ring and the caller must ring it. */
CAMLprim value mimd_spsc_read(value ring, value cap, value buf, value off, value len)
{
  struct ring *r = RING(ring);
  uint64_t c = (uint64_t)Long_val(cap);
  uint64_t tail = __atomic_load_n(&r->tail, __ATOMIC_RELAXED);
  uint64_t head = __atomic_load_n(&r->head, __ATOMIC_ACQUIRE);
  uint64_t n = head - tail;
  if (n > (uint64_t)Long_val(len)) n = (uint64_t)Long_val(len);
  if (n == 0) return Val_long(0);
  uint64_t at = tail % c, first = c - at < n ? c - at : n;
  unsigned char *dst = Bytes_val(buf) + Long_val(off);
  memcpy(dst, r->data + at, first);
  memcpy(dst + first, r->data, n - first);
  __atomic_store_n(&r->tail, tail + n, __ATOMIC_SEQ_CST);
  return Val_long((intnat)(n << 1) | take_parked(&r->writer_parked));
}

/* The reader is about to park: set its flag, then look once more.
   Returns the bytes available; when there are some the flag is
   cleared again and the reader does not park. */
CAMLprim value mimd_spsc_park_reader(value ring)
{
  struct ring *r = RING(ring);
  __atomic_store_n(&r->reader_parked, 1, __ATOMIC_SEQ_CST);
  uint64_t n = __atomic_load_n(&r->head, __ATOMIC_SEQ_CST)
               - __atomic_load_n(&r->tail, __ATOMIC_RELAXED);
  if (n) __atomic_store_n(&r->reader_parked, 0, __ATOMIC_SEQ_CST);
  return Val_long((intnat)n);
}

/* The writer found the ring full: set its flag, then look once more.
   Returns the free bytes; when there are some the flag is cleared
   again and the writer does not park. */
CAMLprim value mimd_spsc_park_writer(value ring, value cap)
{
  struct ring *r = RING(ring);
  __atomic_store_n(&r->writer_parked, 1, __ATOMIC_SEQ_CST);
  uint64_t n = (uint64_t)Long_val(cap)
               - (__atomic_load_n(&r->head, __ATOMIC_RELAXED)
                  - __atomic_load_n(&r->tail, __ATOMIC_SEQ_CST));
  if (n) __atomic_store_n(&r->writer_parked, 0, __ATOMIC_SEQ_CST);
  return Val_long((intnat)n);
}

/* Ring the doorbell: one byte on the link's socket.  Never blocks and
   never raises SIGPIPE; a full socket already holds a pending ring,
   and a dead peer shows as end of stream on this side's next park. */
CAMLprim value mimd_spsc_bell(value fd)
{
  char b = 0;
  (void)send(Int_val(fd), &b, 1, MSG_DONTWAIT | MSG_NOSIGNAL);
  return Val_unit;
}

/* Consume doorbell bytes after a wake-up: the count read, 0 at end of
   stream (or a reset link), -1 when nothing was there. */
CAMLprim value mimd_spsc_drain(value fd)
{
  char buf[64];
  ssize_t n = recv(Int_val(fd), buf, sizeof buf, MSG_DONTWAIT);
  if (n >= 0) return Val_long(n);
  if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR) return Val_long(-1);
  return Val_long(0);
}
