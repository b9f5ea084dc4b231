//! Checksummed length-prefixed frame files — the on-disk container shared by
//! the feed journal and the service's persistent page cache.
//!
//! Layout:
//!
//! ```text
//! ┌─────────────────┬──────────────────────┬───────────────────┬───────────┬─────┐
//! │ magic (8 bytes) │ fingerprint (u64 LE) │ tenant (u64 LE)   │ frame ... │ ... │
//! └─────────────────┴──────────────────────┴───────────────────┴───────────┴─────┘
//! frame := payload_len (u32 LE) · crc32(payload) (u32 LE) · payload
//! ```
//!
//! The magic identifies the file kind (journal vs. cache) and, through its
//! final byte (an ASCII digit), the format version; the fingerprint binds
//! the file to one engine configuration (a [`FrameFile::rewrite`] restamps
//! it with the one its caller serves); the tenant fingerprint binds it to
//! one hosted tenant (`0` for the default tenant and for service-wide files
//! such as the page cache).  Every frame is individually checksummed, so a
//! reader can detect both a torn tail (the process died mid-append) and bit
//! rot, and recover the longest valid prefix.
//!
//! ## Format versions
//!
//! Version `2` is the only layout read.  A file whose version byte differs
//! — the 16-byte-header version `1` included — fails the magic check like
//! any foreign file: it is an error for [`FrameFile::open_or_create`],
//! "nothing here" for [`read_frame_file`], and is never modified.

use std::fs::{self, File, OpenOptions};
use std::io::{BufWriter, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

use crate::crc32::crc32;
use crate::FsyncPolicy;

/// Bytes before the first frame: magic + fingerprint + tenant fingerprint.
pub(crate) const FILE_HEADER_LEN: u64 = 24;

/// Bytes before each frame's payload: length + checksum.
pub(crate) const FRAME_HEADER_LEN: u64 = 8;

/// A frame payload may not exceed this (1 GiB) — a sanity bound so a corrupt
/// length prefix that happens to pass the short-read check cannot trigger an
/// absurd allocation.
const MAX_FRAME_LEN: u32 = 1 << 30;

/// What a scan of an existing frame file found.
#[derive(Debug)]
pub struct FrameScan {
    /// The fingerprint stored in the file header.
    pub fingerprint: u64,
    /// The tenant fingerprint stored in the file header (`0` for the
    /// default tenant and for service-wide files).
    pub tenant: u64,
    /// Every frame payload that passed its checksum, in file order.
    pub frames: Vec<Vec<u8>>,
    /// Bytes of torn/corrupt tail discarded past the last valid frame.
    pub truncated_bytes: u64,
    /// True when the file did not exist (or was empty) and a fresh header
    /// was written.
    pub created: bool,
}

/// An open frame file positioned for appending.
#[derive(Debug)]
pub struct FrameFile {
    file: File,
    path: PathBuf,
    magic: [u8; 8],
    tenant: u64,
    fsync: FsyncPolicy,
    len: u64,
}

impl FrameFile {
    /// Opens `path` for appending, creating it (with a fresh header) when
    /// missing or empty.  An existing file must start with `magic`; its
    /// frames are scanned and the returned [`FrameScan`] carries the valid
    /// payloads.
    ///
    /// The header fingerprint (and tenant fingerprint) of an existing file
    /// is returned, not validated — the caller decides whether a mismatch
    /// is fatal (journal) or means "ignore the file" (cache).  The file is
    /// only ever **modified** when its header matches the caller-supplied
    /// `fingerprint` and `tenant` exactly: then a torn or corrupt tail is
    /// truncated in place.  A file the caller is about to reject is left
    /// byte-for-byte untouched.
    pub fn open_or_create(
        path: &Path,
        magic: [u8; 8],
        fingerprint: u64,
        tenant: u64,
        fsync: FsyncPolicy,
    ) -> std::io::Result<(Self, FrameScan)> {
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(path)?;
        let existing_len = file.metadata()?.len();
        if existing_len == 0 {
            let mut header = Vec::with_capacity(FILE_HEADER_LEN as usize);
            header.extend_from_slice(&magic);
            header.extend_from_slice(&fingerprint.to_le_bytes());
            header.extend_from_slice(&tenant.to_le_bytes());
            file.write_all(&header)?;
            if fsync.should_sync() {
                file.sync_all()?;
            }
            let frame_file = Self {
                file,
                path: path.to_path_buf(),
                magic,
                tenant,
                fsync,
                len: FILE_HEADER_LEN,
            };
            return Ok((
                frame_file,
                FrameScan {
                    fingerprint,
                    tenant,
                    frames: Vec::new(),
                    truncated_bytes: 0,
                    created: true,
                },
            ));
        }

        let mut bytes = Vec::with_capacity(existing_len as usize);
        file.read_to_end(&mut bytes)?;
        let scan = scan_frames(&bytes, magic)?;
        // Modify the file only once the header semantically matches what
        // the caller expects — a file about to be rejected (foreign config,
        // foreign tenant) is returned for inspection but never touched.
        let owned = scan.fingerprint == fingerprint && scan.tenant == tenant;
        let valid_len = existing_len - scan.truncated_bytes;
        if scan.truncated_bytes > 0 && owned {
            file.set_len(valid_len)?;
            if fsync.should_sync() {
                file.sync_all()?;
            }
        }
        file.seek(SeekFrom::Start(valid_len))?;
        let frame_file = Self {
            file,
            path: path.to_path_buf(),
            magic,
            tenant: scan.tenant,
            fsync,
            len: valid_len,
        };
        Ok((frame_file, scan))
    }

    /// Appends one frame and (per the fsync policy) forces it to disk.
    /// Returns the bytes written.
    pub fn append(&mut self, payload: &[u8]) -> std::io::Result<u64> {
        let mut frame = Vec::with_capacity(FRAME_HEADER_LEN as usize + payload.len());
        frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        frame.extend_from_slice(&crc32(payload).to_le_bytes());
        frame.extend_from_slice(payload);
        self.file.write_all(&frame)?;
        if self.fsync.should_sync() {
            self.file.sync_all()?;
        }
        self.len += frame.len() as u64;
        Ok(frame.len() as u64)
    }

    /// Atomically replaces the whole file with a fresh header stamped with
    /// `fingerprint`, followed by `payloads`, via write-temp → fsync →
    /// rename, then reopens the handle on the new file.  This is how a
    /// checkpoint truncates the journal: a crash at any point leaves either
    /// the complete old file or the complete new one.
    pub fn rewrite(&mut self, fingerprint: u64, payloads: &[&[u8]]) -> std::io::Result<()> {
        write_frame_file(&self.path, self.magic, fingerprint, self.tenant, payloads)?;
        let mut file = OpenOptions::new().read(true).write(true).open(&self.path)?;
        self.len = file.seek(SeekFrom::End(0))?;
        self.file = file;
        Ok(())
    }

    /// Current file length in bytes (header included).
    pub fn len_bytes(&self) -> u64 {
        self.len
    }

    /// The file's path.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

/// Writes a complete frame file atomically: header + `payloads` go to a
/// temporary sibling, are fsynced, and are renamed over `path`.  Headers
/// and small payloads are gathered in a write buffer; a payload larger than
/// the buffer goes to the file as it is, never copied.
pub fn write_frame_file(
    path: &Path,
    magic: [u8; 8],
    fingerprint: u64,
    tenant: u64,
    payloads: &[&[u8]],
) -> std::io::Result<()> {
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    let tmp = PathBuf::from(tmp);
    {
        let mut file = BufWriter::new(File::create(&tmp)?);
        file.write_all(&magic)?;
        file.write_all(&fingerprint.to_le_bytes())?;
        file.write_all(&tenant.to_le_bytes())?;
        for payload in payloads {
            file.write_all(&(payload.len() as u32).to_le_bytes())?;
            file.write_all(&crc32(payload).to_le_bytes())?;
            file.write_all(payload)?;
        }
        file.into_inner()
            .map_err(std::io::IntoInnerError::into_error)?
            .sync_all()?;
    }
    fs::rename(&tmp, path)?;
    Ok(())
}

/// Reads a frame file leniently: `Ok(None)` when the file is missing, has
/// the wrong magic, or is shorter than a header — any state where the only
/// sensible reaction is "there is nothing here to load".  Torn or corrupt
/// tails are skipped (the valid prefix is returned) and the file is left
/// untouched.  Used for the page cache, where a bad file must never block
/// recovery.
pub fn read_frame_file(path: &Path, magic: [u8; 8]) -> std::io::Result<Option<FrameScan>> {
    let bytes = match fs::read(path) {
        Ok(bytes) => bytes,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(e),
    };
    match scan_frames(&bytes, magic) {
        Ok(scan) => Ok(Some(scan)),
        Err(_) => Ok(None),
    }
}

/// Scans `bytes` as a frame file: validates the magic, then walks frames
/// until the first short, oversized or checksum-failing one.  Everything
/// from that point on counts as `truncated_bytes`.
fn scan_frames(bytes: &[u8], magic: [u8; 8]) -> std::io::Result<FrameScan> {
    let header_len = FILE_HEADER_LEN as usize;
    if bytes.len() < header_len || bytes[..8] != magic {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            "not a soda frame file (bad magic or short header)",
        ));
    }
    let fingerprint = u64::from_le_bytes(bytes[8..16].try_into().expect("8 bytes"));
    let tenant = u64::from_le_bytes(bytes[16..24].try_into().expect("8 bytes"));
    let mut frames = Vec::new();
    let mut pos = header_len;
    loop {
        let rest = &bytes[pos..];
        if rest.is_empty() {
            break;
        }
        if rest.len() < FRAME_HEADER_LEN as usize {
            break; // torn frame header
        }
        let len = u32::from_le_bytes(rest[..4].try_into().expect("4 bytes"));
        let crc = u32::from_le_bytes(rest[4..8].try_into().expect("4 bytes"));
        if len > MAX_FRAME_LEN {
            break; // corrupt length
        }
        let end = FRAME_HEADER_LEN as usize + len as usize;
        if rest.len() < end {
            break; // torn payload
        }
        let payload = &rest[FRAME_HEADER_LEN as usize..end];
        if crc32(payload) != crc {
            break; // bit rot — stop at the last trustworthy frame
        }
        frames.push(payload.to_vec());
        pos += end;
    }
    Ok(FrameScan {
        fingerprint,
        tenant,
        frames,
        truncated_bytes: (bytes.len() - pos) as u64,
        created: false,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::TempDir;

    const MAGIC: [u8; 8] = *b"SODATST2";
    #[test]
    fn fresh_file_appends_and_rescans() {
        let dir = TempDir::new("frame-fresh");
        let path = dir.path().join("frames.bin");
        let (mut file, scan) =
            FrameFile::open_or_create(&path, MAGIC, 7, 0, FsyncPolicy::Always).unwrap();
        assert!(scan.created);
        file.append(b"one").unwrap();
        file.append(b"two").unwrap();
        assert_eq!(
            file.len_bytes(),
            FILE_HEADER_LEN + 2 * (FRAME_HEADER_LEN + 3)
        );
        drop(file);

        let (_file, scan) =
            FrameFile::open_or_create(&path, MAGIC, 7, 0, FsyncPolicy::Always).unwrap();
        assert!(!scan.created);
        assert_eq!(scan.fingerprint, 7);
        assert_eq!(scan.frames, vec![b"one".to_vec(), b"two".to_vec()]);
        assert_eq!(scan.truncated_bytes, 0);
    }

    #[test]
    fn torn_tail_is_truncated_and_appends_continue() {
        let dir = TempDir::new("frame-torn");
        let path = dir.path().join("frames.bin");
        let (mut file, _) =
            FrameFile::open_or_create(&path, MAGIC, 1, 0, FsyncPolicy::Always).unwrap();
        file.append(b"kept").unwrap();
        file.append(b"doomed-by-the-tear").unwrap();
        drop(file);

        // Tear mid-way through the second frame's payload.
        let full = fs::read(&path).unwrap();
        let keep = FILE_HEADER_LEN + FRAME_HEADER_LEN + 4 + FRAME_HEADER_LEN + 3;
        fs::write(&path, &full[..keep as usize]).unwrap();

        let (mut file, scan) =
            FrameFile::open_or_create(&path, MAGIC, 1, 0, FsyncPolicy::Always).unwrap();
        assert_eq!(scan.frames, vec![b"kept".to_vec()]);
        assert_eq!(scan.truncated_bytes, FRAME_HEADER_LEN + 3);
        // The tail is gone from disk, so a new append lands cleanly.
        file.append(b"after").unwrap();
        drop(file);
        let (_file, scan) =
            FrameFile::open_or_create(&path, MAGIC, 1, 0, FsyncPolicy::Always).unwrap();
        assert_eq!(scan.frames, vec![b"kept".to_vec(), b"after".to_vec()]);
        assert_eq!(scan.truncated_bytes, 0);
    }

    #[test]
    fn corrupt_payload_fails_crc_and_is_dropped() {
        let dir = TempDir::new("frame-crc");
        let path = dir.path().join("frames.bin");
        let (mut file, _) =
            FrameFile::open_or_create(&path, MAGIC, 1, 0, FsyncPolicy::Always).unwrap();
        file.append(b"good").unwrap();
        file.append(b"flipped").unwrap();
        drop(file);

        let mut bytes = fs::read(&path).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x40;
        fs::write(&path, &bytes).unwrap();

        let (_file, scan) =
            FrameFile::open_or_create(&path, MAGIC, 1, 0, FsyncPolicy::Always).unwrap();
        assert_eq!(scan.frames, vec![b"good".to_vec()]);
        assert!(scan.truncated_bytes > 0);
    }

    #[test]
    fn wrong_magic_is_an_error_for_open_and_none_for_lenient_read() {
        let dir = TempDir::new("frame-magic");
        let path = dir.path().join("frames.bin");
        fs::write(&path, b"NOTSODA!AAAAAAAA").unwrap();
        assert!(FrameFile::open_or_create(&path, MAGIC, 1, 0, FsyncPolicy::Always).is_err());
        assert!(read_frame_file(&path, MAGIC).unwrap().is_none());
        assert!(read_frame_file(&dir.path().join("missing"), MAGIC)
            .unwrap()
            .is_none());
    }

    #[test]
    fn rewrite_replaces_contents_atomically() {
        let dir = TempDir::new("frame-rewrite");
        let path = dir.path().join("frames.bin");
        let (mut file, _) =
            FrameFile::open_or_create(&path, MAGIC, 9, 0, FsyncPolicy::Never).unwrap();
        file.append(b"a").unwrap();
        file.append(b"b").unwrap();
        file.rewrite(10, &[b"checkpoint"]).unwrap();
        file.append(b"c").unwrap();
        drop(file);
        let scan = read_frame_file(&path, MAGIC).unwrap().unwrap();
        // The rewrite restamps the header; the tenant stays.
        assert_eq!((scan.fingerprint, scan.tenant), (10, 0));
        assert_eq!(scan.frames, vec![b"checkpoint".to_vec(), b"c".to_vec()]);
    }

    /// A version-1 file (16-byte header, no tenant field) is a foreign file:
    /// rejected by the magic check and left byte-identical on disk — never
    /// read as a torn tail, never truncated.
    #[test]
    fn version_one_file_is_rejected_and_left_untouched() {
        let dir = TempDir::new("frame-v1");
        let path = dir.path().join("frames.bin");
        let mut bytes = b"SODATST1".to_vec();
        bytes.extend_from_slice(&7u64.to_le_bytes());
        for payload in [b"old-one".as_slice(), b"old-two"] {
            bytes.extend_from_slice(&(payload.len() as u32).to_le_bytes());
            bytes.extend_from_slice(&crc32(payload).to_le_bytes());
            bytes.extend_from_slice(payload);
        }
        fs::write(&path, &bytes).unwrap();

        let err = FrameFile::open_or_create(&path, MAGIC, 7, 0, FsyncPolicy::Always).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        assert!(read_frame_file(&path, MAGIC).unwrap().is_none());
        assert_eq!(fs::read(&path).unwrap(), bytes, "rejected file modified");
    }

    #[test]
    fn mismatched_headers_leave_the_file_untouched() {
        // A file opened under the wrong fingerprint or the wrong tenant is
        // returned for inspection but not truncated, torn tail included.
        let dir = TempDir::new("frame-foreign");
        let path = dir.path().join("tenant.bin");
        let (mut file, _) =
            FrameFile::open_or_create(&path, MAGIC, 1, 5, FsyncPolicy::Always).unwrap();
        file.append(b"payload").unwrap();
        drop(file);
        let mut bytes = fs::read(&path).unwrap();
        bytes.push(0xFF); // torn tail
        fs::write(&path, &bytes).unwrap();
        for (fingerprint, tenant) in [(999, 5), (1, 6)] {
            let (file, scan) =
                FrameFile::open_or_create(&path, MAGIC, fingerprint, tenant, FsyncPolicy::Always)
                    .unwrap();
            assert_eq!((scan.fingerprint, scan.tenant), (1, 5));
            assert_eq!(scan.truncated_bytes, 1);
            drop(file);
            assert_eq!(fs::read(&path).unwrap(), bytes, "foreign file modified");
        }
    }
}
