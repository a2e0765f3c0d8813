// Package simdisk is the simulated persistent storage for the target
// systems. Paths are namespaced by node ("zk1/txnlog/log.1"), so data
// survives a simulated process restart within a run but is private to each
// run. Every operation carries an explicit fault-site ID: the disk boundary
// is where the paper injects IOException/FileNotFoundException for its JVM
// targets, and the same external-exception fault sites live here.
//
// # Error semantics
//
// Operations on missing paths have defined behavior, documented on each
// method: Read, Rename and Delete of a missing path return a
// FileNotFoundError attributed to the environment (site
// "env.disk.missing"), never a silent success — the partial-failure
// classes below need a crisp success baseline to perturb.
//
// # Partial failures
//
// Beyond the all-or-nothing injected faults of Reach, the disk executes
// the partial-failure pseudo-sites of inject/pseudo.go: a *short write*
// persists the first half of the data and then fails, *enospc-after*
// appends the first half of the data and then reports no space, and a
// *torn rename* copies the content to the destination while leaving the
// source in place. Each perturbable operation reaches its partial
// pseudo-sites in a fixed order after the operation's own site, so
// occurrence j of partial/disk/short-write/S deterministically names the
// j-th write at site S. The sweep is gated on the runtime's PartialFaults
// feature, so runs without the partial class build no pseudo-site strings
// and count nothing extra.
//
// # Buffers
//
// Every file's bytes sit in a backing array that exactly one path owns —
// a torn rename copies, it does not alias — and that the disk never hands
// out (Read and Peek return copies). An array a file no longer needs
// (outgrown, overwritten, deleted, or dropped by Reset) goes on the
// disk's spare list and the next file that needs room takes the smallest
// spare that fits before allocating. Reset keeps the list, so the file
// buffers of a recycled environment are allocated by its first trials and
// reused by the rest; a fresh Disk starts with none. Only capacity is
// reused, never content.
package simdisk

import (
	"slices"
	"sort"
	"strings"

	"anduril/internal/inject"
	"anduril/internal/logging"
)

// Disk is an in-memory filesystem for one simulated run.
type Disk struct {
	fi    *inject.Runtime
	log   *logging.Log
	files map[string][]byte
	paths []string // the keys of files, sorted: Count and List read runs of it
	spare [][]byte // arrays no file owns, each with length 0; see "Buffers"

	// pseudo caches the partial pseudo-site handles, resolved in fi's
	// table once per (class, site) rather than once per operation. They
	// outlive Reset, as fi's table does.
	pseudo map[pseudoKey]inject.PseudoHandle
}

type pseudoKey struct {
	class inject.PseudoClass
	site  string
}

// New creates an empty disk wired to the run's injection runtime and
// logger (partial faults emit their marker line through it).
func New(fi *inject.Runtime, log *logging.Log) *Disk {
	return &Disk{fi: fi, log: log, files: make(map[string][]byte)}
}

// Reset empties the disk for another run on the same runtime and logger.
// The files' backing arrays stay with the disk as spares.
func (d *Disk) Reset() {
	for _, buf := range d.files {
		d.recycle(buf)
	}
	clear(d.files)
	clear(d.paths)
	d.paths = d.paths[:0]
}

// index enters a path files is about to gain into the sorted index.
func (d *Disk) index(path string) {
	i, _ := slices.BinarySearch(d.paths, path)
	d.paths = slices.Insert(d.paths, i, path)
}

// remove deletes path, which exists, from the disk and the index.
func (d *Disk) remove(path string) {
	delete(d.files, path)
	i, _ := slices.BinarySearch(d.paths, path)
	d.paths = slices.Delete(d.paths, i, i+1)
}

// recycle puts a backing array no path refers to any more on the spare
// list.
func (d *Disk) recycle(buf []byte) {
	if cap(buf) > 0 {
		d.spare = append(d.spare, buf[:0])
	}
}

// buffer returns an empty slice of capacity at least n owned by the
// caller: the smallest spare that fits, else a new array.
func (d *Disk) buffer(n int) []byte {
	best := -1
	for i, b := range d.spare {
		if cap(b) >= n && (best < 0 || cap(b) < cap(d.spare[best])) {
			best = i
		}
	}
	if best < 0 {
		return make([]byte, 0, n)
	}
	buf := d.spare[best]
	last := len(d.spare) - 1
	d.spare[best] = d.spare[last]
	d.spare[last] = nil
	d.spare = d.spare[:last]
	return buf
}

// put makes path hold a copy of data in an array of its own, recycling
// the one it held.
func (d *Disk) put(path string, data []byte) {
	old, ok := d.files[path]
	if !ok {
		d.index(path)
	}
	d.files[path] = append(d.buffer(len(data)), data...)
	d.recycle(old)
}

// reachPartial reaches the class's partial pseudo-site wrapping an
// operation of amp payload bytes at site. When the plan injects there it
// logs the fault's marker line and returns its error value; the caller
// leaves the operation's defined partial state behind.
func (d *Disk) reachPartial(class inject.PseudoClass, site string, amp int) error {
	if !d.fi.Active(inject.PartialFaults) {
		return nil
	}
	key := pseudoKey{class, site}
	h, ok := d.pseudo[key]
	if !ok {
		h = d.fi.Pseudo(inject.PseudoSiteID(class, site, ""))
		if d.pseudo == nil {
			d.pseudo = make(map[pseudoKey]inject.PseudoHandle)
		}
		d.pseudo[key] = h
	}
	f, ok := d.fi.ReachPseudoAt(h, amp)
	if !ok {
		return nil
	}
	if d.log != nil {
		d.log.Warnf("%s", f.Marker())
	}
	return &inject.Fault{Kind: f.Kind, Site: h.Site(), Occurrence: f.Occurrence}
}

// Create makes an empty file (truncating any previous content). site is the
// fault site of the create call.
func (d *Disk) Create(site, path string) error {
	if err := d.fi.Reach(site, inject.IO); err != nil {
		return err
	}
	buf, ok := d.files[path]
	if !ok {
		d.index(path)
	}
	d.files[path] = buf[:0]
	return nil
}

// appendBytes adds data to the end of path, creating it if absent.
func (d *Disk) appendBytes(path string, data []byte) {
	cur, ok := d.files[path]
	if !ok {
		d.index(path)
	}
	if len(cur)+len(data) > cap(cur) {
		// Grow 4x with a log-sized floor: append-heavy files (txn logs)
		// are the common case, and quadrupling halves the bytes copied
		// across a file's lifetime versus plain append doubling.
		ncap := 4 * cap(cur)
		if min := 1024 + len(cur) + len(data); ncap < min {
			ncap = min
		}
		grown := append(d.buffer(ncap), cur...)
		d.recycle(cur)
		cur = grown
	}
	d.files[path] = append(cur, data...)
}

// Append adds data to the end of path, creating it if absent. Under a
// short-write or enospc-after partial fault the first half of data is
// appended before the error returns.
func (d *Disk) Append(site, path string, data []byte) error {
	if err := d.fi.Reach(site, inject.IO); err != nil {
		return err
	}
	for _, class := range [...]inject.PseudoClass{inject.PartialShortWrite, inject.PartialENOSPC} {
		if err := d.reachPartial(class, site, len(data)); err != nil {
			d.appendBytes(path, data[:len(data)/2])
			return err
		}
	}
	d.appendBytes(path, data)
	return nil
}

// Write replaces the content of path. Under a short-write partial fault
// the file holds only the first half of data when the error returns.
func (d *Disk) Write(site, path string, data []byte) error {
	if err := d.fi.Reach(site, inject.IO); err != nil {
		return err
	}
	if err := d.reachPartial(inject.PartialShortWrite, site, len(data)); err != nil {
		d.put(path, data[:len(data)/2])
		return err
	}
	d.put(path, data)
	return nil
}

// Read returns the content of path; a missing file is a FileNotFoundError
// from the environment (not an injected fault).
func (d *Disk) Read(site, path string) ([]byte, error) {
	if err := d.fi.Reach(site, inject.FileNotFound); err != nil {
		return nil, err
	}
	data, ok := d.files[path]
	if !ok {
		return nil, &inject.Fault{Kind: inject.FileNotFound, Site: "env.disk.missing"}
	}
	return append([]byte(nil), data...), nil
}

// Sync models an fsync barrier; it is a fault site but otherwise a no-op.
func (d *Disk) Sync(site, path string) error {
	return d.fi.Reach(site, inject.IO)
}

// Rename moves a file; renaming a missing file is a FileNotFoundError
// from the environment. Under a torn-rename partial fault the content is
// copied to newPath but oldPath survives — both paths exist, each with
// bytes of its own, when the error returns: the defined intermediate
// state of a rename torn by a crash between the copy and the unlink.
func (d *Disk) Rename(site, oldPath, newPath string) error {
	if err := d.fi.Reach(site, inject.IO); err != nil {
		return err
	}
	data, ok := d.files[oldPath]
	if !ok {
		return &inject.Fault{Kind: inject.FileNotFound, Site: "env.disk.missing"}
	}
	if err := d.reachPartial(inject.PartialTornRename, site, len(data)); err != nil {
		d.put(newPath, data)
		return err
	}
	d.remove(oldPath)
	old, ok := d.files[newPath]
	if !ok {
		d.index(newPath)
	}
	d.recycle(old)
	d.files[newPath] = data
	return nil
}

// Delete removes a file; deleting a missing file is a FileNotFoundError
// from the environment, mirroring Read and Rename (a silent success
// would leave partial faults with no baseline to perturb).
func (d *Disk) Delete(site, path string) error {
	if err := d.fi.Reach(site, inject.IO); err != nil {
		return err
	}
	buf, ok := d.files[path]
	if !ok {
		return &inject.Fault{Kind: inject.FileNotFound, Site: "env.disk.missing"}
	}
	d.recycle(buf)
	d.remove(path)
	return nil
}

// Exists reports whether path exists. Pure metadata; not a fault site.
func (d *Disk) Exists(path string) bool {
	_, ok := d.files[path]
	return ok
}

// Peek returns a copy of path's content without going through a fault
// site. Pure metadata like Exists; for oracles and verifiers that inspect
// external state after a run, never for target-system code (which must
// Read through its fault site).
func (d *Disk) Peek(path string) ([]byte, bool) {
	data, ok := d.files[path]
	if !ok {
		return nil, false
	}
	return append([]byte(nil), data...), true
}

// Size returns the length of path's content (0 if absent).
func (d *Disk) Size(path string) int { return len(d.files[path]) }

// under returns the bounds of the run of the sorted index that starts
// with prefix: the paths with a prefix sort together, from the first one
// not below it.
func (d *Disk) under(prefix string) (lo, hi int) {
	lo, _ = slices.BinarySearch(d.paths, prefix)
	rest := d.paths[lo:]
	return lo, lo + sort.Search(len(rest), func(i int) bool { return !strings.HasPrefix(rest[i], prefix) })
}

// Count returns how many paths List(prefix) would return, without building
// them. Pure metadata like Exists: no fault site.
func (d *Disk) Count(prefix string) int {
	lo, hi := d.under(prefix)
	return hi - lo
}

// List returns the sorted paths under the given prefix.
func (d *Disk) List(prefix string) []string {
	lo, hi := d.under(prefix)
	if lo == hi {
		return nil
	}
	return slices.Clone(d.paths[lo:hi])
}
