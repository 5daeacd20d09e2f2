//! Backing storage for [`crate::Graph`]'s CSR arrays.
//!
//! A graph's two arrays (`offsets: [u32]`, `neighbors: [u32]`) can live
//! in one of two backends:
//!
//! * **Owned** — two independent heap allocations, what
//!   [`crate::Graph::from_csr`] and [`crate::GraphBuilder`] produce.
//!   Builders and generators use this backend, and so does a snapshot
//!   load on a big-endian target, where the section bytes are decoded
//!   instead of viewed.
//! * **Arena** — one contiguous 64-byte-aligned buffer holding a whole
//!   `.hkg` snapshot, with the CSR arrays read *in place* (the
//!   writer aligns every section to 64 bytes precisely so the loader can
//!   cast section bytes to typed slices without copying). The buffer is
//!   either an aligned heap allocation filled by one `read` pass, or —
//!   behind the `mmap` feature — a private file mapping, in which case
//!   loading a multi-gigabyte snapshot costs no physical memory until
//!   pages are touched and clean pages can be reclaimed under pressure.
//!
//! The backend is invisible to every `Graph` accessor: the hot paths
//! (`degree`, `neighbor_row`, the walk kernels' unchecked loads) read
//! through raw slice views resolved once at construction, so there is no
//! per-access branch on the backend — identical codegen to a two-`Box`
//! layout.
//!
//! # mmap shim
//!
//! The build environment is fully offline, so instead of a `memmap2`
//! dependency the `mmap` feature enables a ~40-line shim over the raw
//! `mmap(2)`/`munmap(2)` C ABI (libc is already linked by `std` on every
//! unix target). The mapping is `PROT_READ | MAP_PRIVATE`; mutating the
//! file while a mapping is live is undefined at the OS level (a truncate
//! can raise `SIGBUS`), which is the standard mmap caveat — treat `.hkg`
//! snapshots as immutable once published.

use std::alloc::{alloc_zeroed, dealloc, Layout};
use std::ptr::NonNull;

/// Alignment of every v2 section — one cache line, and a multiple of
/// `align_of::<u64>()`, so in-place slice casts are always sound.
pub const SECTION_ALIGN: usize = 64;

/// Which backend a [`crate::Graph`]'s CSR arrays live in.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StorageBackend {
    /// Two independent heap allocations (`Box<[_]>`).
    Owned,
    /// One aligned heap buffer holding a v2 snapshot, arrays read in place.
    Arena,
    /// A read-only file mapping of a v2 snapshot (zero-copy, demand-paged).
    #[cfg(feature = "mmap")]
    Mmap,
}

impl std::fmt::Display for StorageBackend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StorageBackend::Owned => f.write_str("owned"),
            StorageBackend::Arena => f.write_str("arena"),
            #[cfg(feature = "mmap")]
            StorageBackend::Mmap => f.write_str("mmap"),
        }
    }
}

enum ArenaKind {
    /// `alloc_zeroed` buffer with [`SECTION_ALIGN`] alignment.
    Heap { ptr: NonNull<u8>, len: usize },
    #[cfg(all(feature = "mmap", unix, target_pointer_width = "64"))]
    Mmap { ptr: NonNull<u8>, len: usize },
}

/// An immutable, 64-byte-aligned byte buffer that owns (or maps) a whole
/// v2 snapshot. `Graph` keeps one alive (via `Arc`) for as long as any
/// slice view into it exists.
pub struct Arena {
    kind: ArenaKind,
}

// SAFETY: the buffer is immutable after construction (the only `&mut`
// access is `as_mut_slice`, which requires exclusive ownership before the
// arena is shared) and freed exactly once in `Drop`.
unsafe impl Send for Arena {}
unsafe impl Sync for Arena {}

impl Arena {
    /// A zero-filled heap arena of `len` bytes, [`SECTION_ALIGN`]-aligned.
    pub fn zeroed(len: usize) -> Arena {
        let layout = Self::layout(len);
        // SAFETY: layout has non-zero size (clamped below).
        let raw = unsafe { alloc_zeroed(layout) };
        let ptr = NonNull::new(raw).unwrap_or_else(|| std::alloc::handle_alloc_error(layout));
        Arena {
            kind: ArenaKind::Heap { ptr, len },
        }
    }

    /// A heap arena holding a copy of `bytes`.
    pub fn from_bytes(bytes: &[u8]) -> Arena {
        let mut arena = Arena::zeroed(bytes.len());
        arena.as_mut_slice().copy_from_slice(bytes);
        arena
    }

    fn layout(len: usize) -> Layout {
        // Zero-size allocations are UB; a 1-byte arena keeps the pointer
        // real (an empty snapshot is rejected long before this anyway).
        Layout::from_size_align(len.max(1), SECTION_ALIGN).expect("arena layout")
    }

    /// The buffer contents.
    #[inline]
    pub fn as_slice(&self) -> &[u8] {
        match &self.kind {
            ArenaKind::Heap { ptr, len } => {
                // SAFETY: `ptr` covers `len` initialized bytes.
                unsafe { std::slice::from_raw_parts(ptr.as_ptr(), *len) }
            }
            #[cfg(all(feature = "mmap", unix, target_pointer_width = "64"))]
            ArenaKind::Mmap { ptr, len } => unsafe {
                std::slice::from_raw_parts(ptr.as_ptr(), *len)
            },
        }
    }

    /// Mutable access for filling a freshly allocated heap arena. Panics
    /// on a mapped arena (mappings are read-only).
    pub fn as_mut_slice(&mut self) -> &mut [u8] {
        match &mut self.kind {
            ArenaKind::Heap { ptr, len } => {
                // SAFETY: exclusive `&mut self`, `ptr` covers `len` bytes.
                unsafe { std::slice::from_raw_parts_mut(ptr.as_ptr(), *len) }
            }
            #[cfg(all(feature = "mmap", unix, target_pointer_width = "64"))]
            ArenaKind::Mmap { .. } => panic!("mmap arenas are read-only"),
        }
    }

    /// Buffer length in bytes — what an arena-backed graph reports as its
    /// resident [`crate::Graph::memory_bytes`].
    #[inline]
    pub fn len(&self) -> usize {
        match &self.kind {
            ArenaKind::Heap { len, .. } => *len,
            #[cfg(all(feature = "mmap", unix, target_pointer_width = "64"))]
            ArenaKind::Mmap { len, .. } => *len,
        }
    }

    /// Whether the buffer is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Which backend this arena is.
    pub fn backend(&self) -> StorageBackend {
        match &self.kind {
            ArenaKind::Heap { .. } => StorageBackend::Arena,
            #[cfg(all(feature = "mmap", unix, target_pointer_width = "64"))]
            ArenaKind::Mmap { .. } => StorageBackend::Mmap,
        }
    }

    /// Map `file` read-only. The mapping is page-aligned (>= 4096 >=
    /// [`SECTION_ALIGN`]), so section casts stay sound.
    #[cfg(all(feature = "mmap", unix, target_pointer_width = "64"))]
    pub fn map_file(file: &std::fs::File) -> std::io::Result<Arena> {
        use std::os::unix::io::AsRawFd;
        let len = file.metadata()?.len();
        if len == 0 {
            // mmap(len = 0) is EINVAL; an empty file cannot be a snapshot.
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "cannot map an empty file",
            ));
        }
        let len = usize::try_from(len).map_err(|_| {
            std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                "file exceeds address space",
            )
        })?;
        // SAFETY: valid fd, len > 0; a MAP_FAILED return is checked below.
        let raw = unsafe {
            mmap_sys::mmap(
                std::ptr::null_mut(),
                len,
                mmap_sys::PROT_READ,
                mmap_sys::MAP_PRIVATE,
                file.as_raw_fd(),
                0,
            )
        };
        if raw == mmap_sys::MAP_FAILED {
            return Err(std::io::Error::last_os_error());
        }
        let ptr = NonNull::new(raw.cast::<u8>()).expect("mmap returned null");
        Ok(Arena {
            kind: ArenaKind::Mmap { ptr, len },
        })
    }
}

impl Drop for Arena {
    fn drop(&mut self) {
        match &self.kind {
            ArenaKind::Heap { ptr, len } => {
                // SAFETY: allocated in `zeroed` with the identical layout.
                unsafe { dealloc(ptr.as_ptr(), Self::layout(*len)) }
            }
            #[cfg(all(feature = "mmap", unix, target_pointer_width = "64"))]
            ArenaKind::Mmap { ptr, len } => {
                // SAFETY: a live mapping established by `map_file`.
                unsafe {
                    mmap_sys::munmap(ptr.as_ptr().cast(), *len);
                }
            }
        }
    }
}

impl std::fmt::Debug for Arena {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Arena")
            .field("backend", &self.backend())
            .field("len", &self.len())
            .finish()
    }
}

/// Raw `mmap(2)` / `munmap(2)` declarations — the vendored shim described
/// in the module docs. `std` already links libc on unix, so plain
/// `extern "C"` declarations suffice; the constants below hold on every
/// tier-1 unix target (Linux, macOS, the BSDs). Gated to 64-bit pointer
/// width: the declared `offset: i64` matches `off_t` there, while 32-bit
/// ABIs pass a 32-bit `off_t` (mismatched stack layout), so those
/// targets load snapshots into a heap arena.
#[cfg(all(feature = "mmap", unix, target_pointer_width = "64"))]
mod mmap_sys {
    use std::ffi::c_void;
    pub const PROT_READ: i32 = 0x1;
    pub const MAP_PRIVATE: i32 = 0x02;
    pub const MAP_FAILED: *mut c_void = usize::MAX as *mut c_void;
    extern "C" {
        pub fn mmap(
            addr: *mut c_void,
            len: usize,
            prot: i32,
            flags: i32,
            fd: i32,
            offset: i64,
        ) -> *mut c_void;
        pub fn munmap(addr: *mut c_void, len: usize) -> i32;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn heap_arena_is_aligned_and_zeroed() {
        let arena = Arena::zeroed(1000);
        assert_eq!(arena.len(), 1000);
        assert!(!arena.is_empty());
        assert_eq!(arena.as_slice().as_ptr() as usize % SECTION_ALIGN, 0);
        assert!(arena.as_slice().iter().all(|&b| b == 0));
        assert_eq!(arena.backend(), StorageBackend::Arena);
    }

    #[test]
    fn from_bytes_copies() {
        let data: Vec<u8> = (0..200).map(|i| (i * 7) as u8).collect();
        let arena = Arena::from_bytes(&data);
        assert_eq!(arena.as_slice(), &data[..]);
    }

    #[test]
    fn mutation_before_sharing() {
        let mut arena = Arena::zeroed(16);
        arena.as_mut_slice()[3] = 0xAB;
        assert_eq!(arena.as_slice()[3], 0xAB);
    }

    #[cfg(all(feature = "mmap", unix, target_pointer_width = "64"))]
    #[test]
    fn mmap_roundtrip_and_empty_file() {
        let dir = std::env::temp_dir().join("hk_graph_mmap_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("blob.bin");
        let data: Vec<u8> = (0..4096 + 17).map(|i| (i % 251) as u8).collect();
        std::fs::write(&path, &data).unwrap();
        let arena = Arena::map_file(&std::fs::File::open(&path).unwrap()).unwrap();
        assert_eq!(arena.as_slice(), &data[..]);
        assert_eq!(arena.backend(), StorageBackend::Mmap);
        assert_eq!(arena.as_slice().as_ptr() as usize % SECTION_ALIGN, 0);

        let empty = dir.join("empty.bin");
        std::fs::write(&empty, b"").unwrap();
        assert!(Arena::map_file(&std::fs::File::open(&empty).unwrap()).is_err());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
