// Package checkpoint implements the restart controller of the framework
// (paper Fig. 3): wavefield snapshots are serialized with LZ4-compressed
// blocks (the paper compresses 108-TB restart dumps this way), written
// through an I/O plan that models the paper's group I/O and balanced I/O
// forwarding, which together reached 120 GB/s — 92.3% of the file system
// peak.
//
// Checkpoints are the fault-tolerance contract of long runs, so the on-disk
// format is defensive: files are written atomically (temp + fsync + rename
// via atomicio), the header carries its own CRC32, every compressed block
// is checksummed, and Load validates all declared lengths before decoding.
// LatestValid falls back past corrupt or truncated dumps to the newest one
// that passes every check.
package checkpoint

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"swquake/internal/atomicio"
	"swquake/internal/faultinject"
	"swquake/internal/fd"
	"swquake/internal/grid"
	"swquake/internal/lz4"
)

// magic identifies checkpoint files.
const magic = 0x53574b51 // "SWKQ"

// version 2 adds the header CRC and the optional aux section; version-1
// files (no integrity header) are rejected with a clear error.
const version = 2

// headerSize is the fixed v2 header: magic, version, step, simTime,
// nx, ny, nz, auxLen, headerCRC.
const headerSize = 4 + 4 + 8 + 8 + 4 + 4 + 4 + 4 + 4

// ErrNoCheckpoint is returned by LatestValid when the directory holds no
// checkpoint that passes the integrity checks.
var ErrNoCheckpoint = errors.New("checkpoint: no valid checkpoint")

// Info reports what a Save wrote.
type Info struct {
	Path             string
	RawBytes         int64
	CompressedBytes  int64
	CompressionRatio float64
	// WriteSeconds is the wall time of the dump from the first converted
	// float to the synced directory entry. Under a Controller this work
	// runs beside the solver, so it is the only place it shows.
	WriteSeconds float64
}

// scratch is the working memory of one dump, reused across its nine fields
// (and, under a Controller, across dumps): a field as little-endian bytes,
// and its block — the 12-byte block header followed by the compressed
// payload, so a block goes to the file in one write without being copied.
type scratch struct {
	raw, blk []byte
}

const blockHeaderSize = 12 // rawLen, compLen, CRC32 of the compressed bytes

// grow sizes the pair for fields of n float32 values.
func (sc *scratch) grow(n int) {
	if len(sc.raw) != 4*n {
		sc.raw = make([]byte, 4*n)
		sc.blk = make([]byte, blockHeaderSize+lz4.CompressBound(4*n))
	}
}

// Save writes a checkpoint of the wavefield at the given step and sim time.
// The file is written atomically: a crash mid-write leaves the previous
// checkpoint (or nothing), never a torn file.
func Save(path string, step int, simTime float64, wf *fd.Wavefield) (Info, error) {
	return save(path, step, simTime, wf, nil, &scratch{})
}

// save writes a checkpoint through the scratch sc, with an opaque auxiliary
// payload stored (CRC-protected) between the header and the field blocks —
// the engine keeps its resume state (recorder samples, PGV peaks, the yield
// count) there so a restarted run is indistinguishable from an
// uninterrupted one.
func save(path string, step int, simTime float64, wf *fd.Wavefield, aux []byte, sc *scratch) (Info, error) {
	info := Info{Path: path}
	if err := faultinject.Check(faultinject.CheckpointWrite); err != nil {
		return info, fmt.Errorf("checkpoint: write %s: %w", path, err)
	}
	start := time.Now()
	err := atomicio.WriteFile(path, func(w io.Writer) error {
		hdr := make([]byte, 0, headerSize)
		hdr = binary.LittleEndian.AppendUint32(hdr, magic)
		hdr = binary.LittleEndian.AppendUint32(hdr, version)
		hdr = binary.LittleEndian.AppendUint64(hdr, uint64(step))
		hdr = binary.LittleEndian.AppendUint64(hdr, math.Float64bits(simTime))
		hdr = binary.LittleEndian.AppendUint32(hdr, uint32(wf.D.Nx))
		hdr = binary.LittleEndian.AppendUint32(hdr, uint32(wf.D.Ny))
		hdr = binary.LittleEndian.AppendUint32(hdr, uint32(wf.D.Nz))
		hdr = binary.LittleEndian.AppendUint32(hdr, uint32(len(aux)))
		hdr = binary.LittleEndian.AppendUint32(hdr, crc32.ChecksumIEEE(hdr))
		if _, err := w.Write(hdr); err != nil {
			return err
		}
		if len(aux) > 0 {
			if _, err := w.Write(aux); err != nil {
				return err
			}
			var crc [4]byte
			binary.LittleEndian.PutUint32(crc[:], crc32.ChecksumIEEE(aux))
			if _, err := w.Write(crc[:]); err != nil {
				return err
			}
		}
		for _, field := range wf.AllFields() {
			sc.grow(len(field.Data))
			float32Bytes(sc.raw, field.Data)
			n, err := lz4.Compress(sc.blk[blockHeaderSize:], sc.raw)
			if err != nil {
				return err
			}
			comp := sc.blk[blockHeaderSize : blockHeaderSize+n]
			binary.LittleEndian.PutUint32(sc.blk[0:], uint32(len(sc.raw)))
			binary.LittleEndian.PutUint32(sc.blk[4:], uint32(n))
			binary.LittleEndian.PutUint32(sc.blk[8:], crc32.ChecksumIEEE(comp))
			if _, err := w.Write(sc.blk[:blockHeaderSize+n]); err != nil {
				return err
			}
			info.RawBytes += int64(len(sc.raw))
			info.CompressedBytes += int64(n)
		}
		return nil
	})
	if err != nil {
		return Info{Path: path}, err
	}
	if faultinject.Fire(faultinject.CheckpointCorrupt) {
		corruptFile(path)
	}
	if info.CompressedBytes > 0 {
		info.CompressionRatio = float64(info.RawBytes) / float64(info.CompressedBytes)
	}
	info.WriteSeconds = time.Since(start).Seconds()
	return info, nil
}

// corruptFile flips one byte in the middle of the file — the
// checkpoint/corrupt failpoint's payload, simulating a dump damaged on disk.
func corruptFile(path string) {
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		return
	}
	defer f.Close()
	if st, err := f.Stat(); err == nil && st.Size() > 0 {
		off := st.Size() / 2
		var b [1]byte
		if _, err := f.ReadAt(b[:], off); err == nil {
			b[0] ^= 0xff
			f.WriteAt(b[:], off)
		}
	}
}

// Load reads a checkpoint, returning the step, sim time and wavefield.
func Load(path string) (int, float64, *fd.Wavefield, error) {
	step, simTime, wf, _, err := LoadAux(path)
	return step, simTime, wf, err
}

// LoadAux is Load plus the auxiliary payload (nil when the checkpoint
// carries none). Every declared length is validated against the file size
// before any decode, so truncated files fail with an explicit "truncated"
// error rather than a confusing unpack failure, and corruption anywhere —
// header, aux, or blocks — is caught by a CRC mismatch.
func LoadAux(path string) (int, float64, *fd.Wavefield, []byte, error) {
	fail := func(format string, args ...any) (int, float64, *fd.Wavefield, []byte, error) {
		return 0, 0, nil, nil, fmt.Errorf("checkpoint: %s: %s", path, fmt.Sprintf(format, args...))
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return 0, 0, nil, nil, err
	}
	if len(data) < headerSize {
		return fail("truncated: header needs %d bytes, file has %d", headerSize, len(data))
	}
	if binary.LittleEndian.Uint32(data[0:]) != magic {
		return fail("bad magic")
	}
	if v := binary.LittleEndian.Uint32(data[4:]); v != version {
		return fail("unsupported version %d (want %d)", v, version)
	}
	if got, want := crc32.ChecksumIEEE(data[:headerSize-4]), binary.LittleEndian.Uint32(data[headerSize-4:]); got != want {
		return fail("header CRC mismatch")
	}
	step := int(binary.LittleEndian.Uint64(data[8:]))
	simTime := math.Float64frombits(binary.LittleEndian.Uint64(data[16:]))
	d := grid.Dims{
		Nx: int(binary.LittleEndian.Uint32(data[24:])),
		Ny: int(binary.LittleEndian.Uint32(data[28:])),
		Nz: int(binary.LittleEndian.Uint32(data[32:])),
	}
	if !d.Valid() {
		return fail("invalid dims %v", d)
	}
	// a genuine file holds 9 compressed field blocks; dims whose fields could
	// not possibly fit (even at the codec's best ratio) are rejected before
	// the wavefield allocation, not after an OOM
	if minSize := int64(d.Points()) * 9 * 4 / 256; int64(len(data)) < minSize {
		return fail("dims %v imply at least %d bytes of blocks, file has %d", d, minSize, len(data))
	}
	auxLen := int(binary.LittleEndian.Uint32(data[36:]))
	off := headerSize
	var aux []byte
	if auxLen > 0 {
		if len(data)-off < auxLen+4 {
			return fail("truncated: aux section needs %d bytes, %d remain", auxLen+4, len(data)-off)
		}
		body := data[off : off+auxLen]
		if crc32.ChecksumIEEE(body) != binary.LittleEndian.Uint32(data[off+auxLen:]) {
			return fail("aux CRC mismatch")
		}
		aux = append([]byte(nil), body...)
		off += auxLen + 4
	}
	wf := fd.NewWavefield(d)
	for i, field := range wf.AllFields() {
		if len(data)-off < 12 {
			return fail("truncated: block %d header missing", i)
		}
		rawLen := int(binary.LittleEndian.Uint32(data[off:]))
		compLen := int(binary.LittleEndian.Uint32(data[off+4:]))
		wantCRC := binary.LittleEndian.Uint32(data[off+8:])
		off += 12
		if rawLen != len(field.Data)*4 {
			return fail("block %d declares %d raw bytes, field holds %d", i, rawLen, len(field.Data)*4)
		}
		if compLen > len(data)-off {
			return fail("truncated: block %d needs %d bytes, %d remain", i, compLen, len(data)-off)
		}
		comp := data[off : off+compLen]
		if crc32.ChecksumIEEE(comp) != wantCRC {
			return fail("block %d CRC mismatch", i)
		}
		raw, err := lz4.DecompressAlloc(comp, rawLen)
		if err != nil {
			return fail("block %d: %v", i, err)
		}
		bytesToFloat32(field.Data, raw)
		off += compLen
	}
	if off != len(data) {
		return fail("%d trailing bytes after last block", len(data)-off)
	}
	return step, simTime, wf, aux, nil
}

// Controller saves checkpoints every Interval steps into Dir, keeping the
// most recent Keep files, without holding the solver up for the dump: it is
// the write lane the paper pairs its LZ4 restart files with.
//
// On a due step MaybeSave waits for the previous dump, has the caller fill
// the lane's snapshot and returns; one goroutine per dump then converts,
// compresses, CRCs, writes, fsyncs, renames, syncs the directory and applies
// retention. At most one dump is in flight, so the lane holds exactly one
// wavefield of memory: its snapshot, made at the first dump and reused for
// every later one of the same dims. A failed write surfaces at the next due
// step or at Close, whichever comes first, and is sticky until Close. Close
// drains the lane: when it returns, every accepted dump is durable or
// reported, and the snapshot is released. The run that drives the
// controller must call Close on every return path; a controller is reusable
// after Close.
//
// MaybeSave and Close are for one goroutine at a time (the solver loop, or
// block 0 of a parallel run).
type Controller struct {
	Dir      string
	Interval int
	Keep     int

	// the lane. The writer goroutine owns snap, sc, infos and err until it
	// closes inflight; the caller touches them only after receiving from it.
	snap     *fd.Wavefield // the one snapshot MaybeSave's fill writes
	sc       scratch
	inflight chan struct{} // closed when the dump in flight is finished; nil when idle
	infos    []Info
	err      error
}

// Due reports whether a checkpoint falls on this step — the interval test
// MaybeSave applies, exposed so that every block of a run agrees a dump is
// taken before any of them starts gathering it.
func (c *Controller) Due(step int) bool {
	return c.Interval > 0 && step != 0 && step%c.Interval == 0
}

// MaybeSave starts a checkpoint when the step is a multiple of Interval and
// reports whether it did. fill writes the state, a wavefield of dims d, into
// the lane's snapshot: every interior point, and no ghost plane, which stays
// zero, so a dump's bytes are the run's state alone. aux is stored in the
// checkpoint's auxiliary section (the engine's resume state: recorder, PGV,
// yield count) and handed over: the caller must not write it again. The
// error is fill's, or a previous dump's.
func (c *Controller) MaybeSave(step int, simTime float64, d grid.Dims, fill func(*fd.Wavefield) error, aux []byte) (bool, error) {
	if !c.Due(step) {
		return false, nil
	}
	if err := c.wait(); err != nil {
		return false, err
	}
	if c.snap == nil || c.snap.D != d {
		c.snap = fd.NewWavefield(d)
	}
	if err := fill(c.snap); err != nil {
		return false, err
	}
	c.start(step, simTime, c.snap, aux)
	return true, nil
}

// wait blocks until no dump is in flight and returns the lane's error.
func (c *Controller) wait() error {
	if c.inflight != nil {
		<-c.inflight
		c.inflight = nil
	}
	return c.err
}

// start launches the dump of wf, which nothing else may write until the
// lane is idle again. The lane is idle and error-free here.
func (c *Controller) start(step int, simTime float64, wf *fd.Wavefield, aux []byte) {
	done := make(chan struct{})
	c.inflight = done
	go func() {
		defer close(done)
		path := filepath.Join(c.Dir, fmt.Sprintf("ckpt-%08d.swq", step))
		info, err := save(path, step, simTime, wf, aux, &c.sc)
		if err != nil {
			c.err = err
			return
		}
		c.gc()
		c.infos = append(c.infos, info)
	}()
}

// Close drains the lane and returns what it wrote since the last Close,
// oldest first, with the first write error. The snapshot and the codec
// scratch are released, so a finished run pins no checkpoint memory.
// Closing an idle or already closed controller returns nothing.
func (c *Controller) Close() ([]Info, error) {
	err := c.wait()
	infos := c.infos
	c.snap, c.sc, c.infos, c.err = nil, scratch{}, nil, nil
	return infos, err
}

// gc removes the oldest checkpoints beyond Keep. It scans the directory
// rather than an in-memory list, so retention also holds for files written
// by a previous (crashed) process resuming into the same directory.
func (c *Controller) gc() {
	if c.Keep <= 0 {
		return
	}
	names := checkpointNames(c.Dir)
	for len(names) > c.Keep {
		os.Remove(filepath.Join(c.Dir, names[0]))
		names = names[1:]
	}
}

// checkpointNames lists the .swq files in dir, oldest first (names embed
// the zero-padded step, so lexical order is step order).
func checkpointNames(dir string) []string {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil
	}
	var names []string
	for _, e := range entries {
		if !e.IsDir() && filepath.Ext(e.Name()) == ".swq" {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	return names
}

// Latest returns the newest checkpoint path in Dir, or "" if none. It does
// not open the file; use LatestValid when the file must also be loadable.
func (c *Controller) Latest() string {
	names := checkpointNames(c.Dir)
	if len(names) == 0 {
		return ""
	}
	return filepath.Join(c.Dir, names[len(names)-1])
}

// LatestValid returns the newest checkpoint in dir that passes every
// integrity check (header CRC, aux CRC, per-block CRCs, length validation),
// skipping corrupt or truncated files — the fallback a recovering process
// needs when a failure damaged the most recent dump. It returns
// ErrNoCheckpoint when nothing in the directory is loadable.
func LatestValid(dir string) (string, error) {
	names := checkpointNames(dir)
	for i := len(names) - 1; i >= 0; i-- {
		path := filepath.Join(dir, names[i])
		if _, _, _, _, err := LoadAux(path); err == nil {
			return path, nil
		}
	}
	return "", ErrNoCheckpoint
}

// PathStep parses the step number out of a controller-written checkpoint
// filename (ckpt-%08d.swq); ok is false for any other name, including "".
func PathStep(path string) (int, bool) {
	var step int
	base := filepath.Base(path)
	if _, err := fmt.Sscanf(base, "ckpt-%d.swq", &step); err != nil || !strings.HasSuffix(base, ".swq") {
		return 0, false
	}
	return step, true
}

// float32Bytes fills dst (4*len(src) bytes) with src as little-endian words.
func float32Bytes(dst []byte, src []float32) {
	for i, v := range src {
		binary.LittleEndian.PutUint32(dst[i*4:], math.Float32bits(v))
	}
}

func bytesToFloat32(dst []float32, src []byte) {
	for i := range dst {
		dst[i] = math.Float32frombits(binary.LittleEndian.Uint32(src[i*4:]))
	}
}
