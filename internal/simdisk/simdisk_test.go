package simdisk

import (
	"bytes"
	"errors"
	"slices"
	"sort"
	"strings"
	"testing"
	"testing/quick"

	"anduril/internal/inject"
)

func TestCreateAppendRead(t *testing.T) {
	d := New(inject.NewRuntime(nil), nil)
	if err := d.Create("s.create", "n1/wal/1.log"); err != nil {
		t.Fatal(err)
	}
	if err := d.Append("s.append", "n1/wal/1.log", []byte("abc")); err != nil {
		t.Fatal(err)
	}
	if err := d.Append("s.append", "n1/wal/1.log", []byte("def")); err != nil {
		t.Fatal(err)
	}
	got, err := d.Read("s.read", "n1/wal/1.log")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, []byte("abcdef")) {
		t.Fatalf("content: %q", got)
	}
	if d.Size("n1/wal/1.log") != 6 {
		t.Fatalf("size=%d", d.Size("n1/wal/1.log"))
	}
}

func TestReadMissingIsFileNotFound(t *testing.T) {
	d := New(inject.NewRuntime(nil), nil)
	_, err := d.Read("s.read", "nope")
	if !errors.Is(err, inject.KindErr(inject.FileNotFound)) {
		t.Fatalf("err=%v", err)
	}
}

func TestWriteTruncates(t *testing.T) {
	d := New(inject.NewRuntime(nil), nil)
	d.Append("s", "f", []byte("long content"))
	d.Write("s", "f", []byte("x"))
	got, _ := d.Read("s", "f")
	if string(got) != "x" {
		t.Fatalf("content: %q", got)
	}
}

func TestRename(t *testing.T) {
	d := New(inject.NewRuntime(nil), nil)
	d.Write("s", "tmp/ckpt", []byte("img"))
	if err := d.Rename("s.rename", "tmp/ckpt", "current/ckpt"); err != nil {
		t.Fatal(err)
	}
	if d.Exists("tmp/ckpt") || !d.Exists("current/ckpt") {
		t.Fatal("rename did not move file")
	}
	if err := d.Rename("s.rename", "tmp/ckpt", "x"); !errors.Is(err, inject.KindErr(inject.FileNotFound)) {
		t.Fatalf("rename missing: %v", err)
	}
}

func TestDeleteAndList(t *testing.T) {
	d := New(inject.NewRuntime(nil), nil)
	d.Write("s", "n1/a", nil)
	d.Write("s", "n1/b", nil)
	d.Write("s", "n2/c", nil)
	if got := d.List("n1/"); len(got) != 2 || got[0] != "n1/a" || got[1] != "n1/b" {
		t.Fatalf("list: %v", got)
	}
	d.Delete("s", "n1/a")
	if d.Exists("n1/a") {
		t.Fatal("delete failed")
	}
}

func TestInjectedFaultAborts(t *testing.T) {
	fi := inject.NewRuntime(inject.Exact(inject.Instance{Site: "wal.append", Occurrence: 2}))
	d := New(fi, nil)
	if err := d.Append("wal.append", "f", []byte("a")); err != nil {
		t.Fatal(err)
	}
	err := d.Append("wal.append", "f", []byte("b"))
	if !errors.Is(err, inject.KindErr(inject.IO)) {
		t.Fatalf("err=%v", err)
	}
	// Failed append must not modify the file.
	got, _ := d.Read("r", "f")
	if string(got) != "a" {
		t.Fatalf("content after failed append: %q", got)
	}
}

func TestSyncIsFaultSiteOnly(t *testing.T) {
	fi := inject.NewRuntime(inject.Exact(inject.Instance{Site: "wal.sync", Occurrence: 1}))
	d := New(fi, nil)
	if err := d.Sync("wal.sync", "f"); !errors.Is(err, inject.KindErr(inject.IO)) {
		t.Fatalf("sync err=%v", err)
	}
	if err := d.Sync("wal.sync", "f"); err != nil {
		t.Fatalf("second sync: %v", err)
	}
}

func TestDeleteMissingIsFileNotFound(t *testing.T) {
	d := New(inject.NewRuntime(nil), nil)
	if err := d.Delete("s.delete", "nope"); !errors.Is(err, inject.KindErr(inject.FileNotFound)) {
		t.Fatalf("delete missing: %v", err)
	}
}

func TestShortWritePersistsPrefix(t *testing.T) {
	site := inject.PseudoSiteID(inject.PartialShortWrite, "wal.append", "")
	fi := inject.NewRuntime(inject.Exact(inject.Instance{Site: site, Occurrence: 2}))
	d := New(fi, nil)
	if err := d.Append("wal.append", "f", []byte("abcd")); err != nil {
		t.Fatal(err)
	}
	err := d.Append("wal.append", "f", []byte("wxyz"))
	if !errors.Is(err, inject.KindErr(inject.ShortWrite)) {
		t.Fatalf("err=%v", err)
	}
	got, _ := d.Read("r", "f")
	if string(got) != "abcdwx" {
		t.Fatalf("content after short write: %q", got)
	}
}

func TestShortWriteOnWriteTruncatesToPrefix(t *testing.T) {
	site := inject.PseudoSiteID(inject.PartialShortWrite, "img.write", "")
	fi := inject.NewRuntime(inject.Exact(inject.Instance{Site: site, Occurrence: 1}))
	d := New(fi, nil)
	err := d.Write("img.write", "f", []byte("123456"))
	if !errors.Is(err, inject.KindErr(inject.ShortWrite)) {
		t.Fatalf("err=%v", err)
	}
	got, _ := d.Read("r", "f")
	if string(got) != "123" {
		t.Fatalf("content after short write: %q", got)
	}
}

func TestENOSPCAfterPartialAppend(t *testing.T) {
	site := inject.PseudoSiteID(inject.PartialENOSPC, "wal.append", "")
	fi := inject.NewRuntime(inject.Exact(inject.Instance{Site: site, Occurrence: 1}))
	d := New(fi, nil)
	err := d.Append("wal.append", "f", []byte("abcdef"))
	if !errors.Is(err, inject.KindErr(inject.NoSpace)) {
		t.Fatalf("err=%v", err)
	}
	got, _ := d.Read("r", "f")
	if string(got) != "abc" {
		t.Fatalf("content after enospc: %q", got)
	}
}

func TestTornRenameKeepsBothPaths(t *testing.T) {
	site := inject.PseudoSiteID(inject.PartialTornRename, "ckpt.rename", "")
	fi := inject.NewRuntime(inject.Exact(inject.Instance{Site: site, Occurrence: 1}))
	d := New(fi, nil)
	d.Write("s", "tmp/ckpt", []byte("img"))
	err := d.Rename("ckpt.rename", "tmp/ckpt", "cur/ckpt")
	if !errors.Is(err, inject.KindErr(inject.TornRename)) {
		t.Fatalf("err=%v", err)
	}
	if !d.Exists("tmp/ckpt") || !d.Exists("cur/ckpt") {
		t.Fatalf("torn rename state: src=%v dst=%v", d.Exists("tmp/ckpt"), d.Exists("cur/ckpt"))
	}
	got, _ := d.Read("r", "cur/ckpt")
	if string(got) != "img" {
		t.Fatalf("destination content: %q", got)
	}
}

// Inactive partial sweep must not count pseudo-sites: byte-identity of
// site-only runs depends on it.
func TestPartialSitesNotCountedWhenInactive(t *testing.T) {
	fi := inject.NewRuntime(nil)
	d := New(fi, nil)
	d.Append("wal.append", "f", []byte("abc"))
	d.Rename("s.rename", "f", "g")
	for site := range fi.Counts() {
		if inject.IsPartialSite(site) {
			t.Fatalf("partial site %s counted in inactive run", site)
		}
	}
}

// Property: append-then-read returns the concatenation, and reads never
// alias internal state (mutating the returned slice is safe).
func TestAppendReadProperty(t *testing.T) {
	f := func(chunks [][]byte) bool {
		d := New(inject.NewRuntime(nil), nil)
		var want []byte
		for _, c := range chunks {
			if d.Append("s", "f", c) != nil {
				return false
			}
			want = append(want, c...)
		}
		if len(chunks) == 0 {
			return !d.Exists("f")
		}
		got, err := d.Read("s", "f")
		if err != nil || !bytes.Equal(got, want) {
			return false
		}
		for i := range got {
			got[i] = 0xFF
		}
		again, _ := d.Read("s", "f")
		return bytes.Equal(again, want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// A torn rename leaves two files, not one buffer under two names: appends
// to the source and to the destination afterwards do not see each other.
func TestTornRenameThenAppendBothPaths(t *testing.T) {
	site := inject.PseudoSiteID(inject.PartialTornRename, "log.rename", "")
	fi := inject.NewRuntime(inject.Exact(inject.Instance{Site: site, Occurrence: 1}))
	d := New(fi, nil)
	d.Append("s", "log.tmp", []byte("hdr\n")) // an appended file has room to grow in place
	if err := d.Rename("log.rename", "log.tmp", "log"); !errors.Is(err, inject.KindErr(inject.TornRename)) {
		t.Fatalf("err=%v", err)
	}
	d.Append("s", "log", []byte("new-entry\n"))
	d.Append("s", "log.tmp", []byte("OLD\nentry\n"))
	if got, _ := d.Peek("log"); string(got) != "hdr\nnew-entry\n" {
		t.Fatalf("destination after appending to the source: %q", got)
	}
	if got, _ := d.Peek("log.tmp"); string(got) != "hdr\nOLD\nentry\n" {
		t.Fatalf("source: %q", got)
	}
}

// Reset keeps the files' arrays and nothing of their content.
func TestResetKeepsBuffersNotContent(t *testing.T) {
	d := New(inject.NewRuntime(nil), nil)
	d.Append("s", "n1/wal", bytes.Repeat([]byte("old-record\n"), 300))
	d.Write("s", "n1/snap", []byte("old-snapshot"))
	d.Create("s", "n1/empty")
	d.Reset()
	if len(d.spare) == 0 {
		t.Fatal("Reset kept no buffer")
	}
	if d.Exists("n1/wal") || d.Exists("n1/snap") || d.Exists("n1/empty") || d.Size("n1/wal") != 0 || len(d.List("")) != 0 {
		t.Fatalf("disk not empty after Reset: %v", d.List(""))
	}
	if _, err := d.Read("r", "n1/wal"); !errors.Is(err, inject.KindErr(inject.FileNotFound)) {
		t.Fatalf("read after Reset: %v", err)
	}
	spares := len(d.spare)
	d.Append("s", "n1/wal", []byte("new\n"))
	d.Write("s", "n1/snap", []byte("new"))
	if len(d.spare) != spares-2 {
		t.Fatalf("new files took %d spares, want 2", spares-len(d.spare))
	}
	if got, _ := d.Read("r", "n1/wal"); string(got) != "new\n" {
		t.Fatalf("append into a recycled buffer reads %q", got)
	}
	if got, _ := d.Peek("n1/snap"); string(got) != "new" || d.Size("n1/snap") != 3 {
		t.Fatalf("write into a recycled buffer reads %q", got)
	}
}

// Every backing array has one owner — a live path or a spare entry —
// whatever sequence of operations built the disk.
func TestSpareBuffersAreSingleOwner(t *testing.T) {
	check := func(d *Disk, step string) {
		t.Helper()
		owner := map[*byte]string{}
		claim := func(buf []byte, who string) {
			if cap(buf) == 0 {
				return
			}
			first := &buf[:1][0]
			if prev, taken := owner[first]; taken {
				t.Fatalf("after %s: %s and %s share a backing array", step, prev, who)
			}
			owner[first] = who
		}
		for path, buf := range d.files {
			claim(buf, "file "+path)
		}
		for _, buf := range d.spare {
			if len(buf) != 0 {
				t.Fatalf("after %s: spare entry has length %d", step, len(buf))
			}
			claim(buf, "a spare")
		}
	}
	torn := inject.PseudoSiteID(inject.PartialTornRename, "s.torn", "")
	short := inject.PseudoSiteID(inject.PartialShortWrite, "s.short", "")
	for round := 0; round < 3; round++ {
		fi := inject.NewRuntime(inject.Exact(inject.Instance{Site: torn, Occurrence: 1}, inject.Instance{Site: short, Occurrence: 1}))
		d := New(fi, nil)
		big := bytes.Repeat([]byte("x"), 3000)
		steps := []struct {
			name string
			do   func()
		}{
			{"create", func() { d.Create("s", "a") }},
			{"append", func() { d.Append("s", "a", []byte("abc")) }},
			{"grow", func() { d.Append("s", "a", big) }},
			{"write", func() { d.Write("s", "b", []byte("bbb")) }},
			{"overwrite", func() { d.Write("s", "b", big) }},
			{"short write", func() {
				if err := d.Write("s.short", "b", []byte("half-kept")); err == nil || d.Size("b") != 4 {
					t.Fatalf("write not short: %v", err)
				}
			}},
			{"torn rename", func() {
				if err := d.Rename("s.torn", "a", "c"); err == nil || !d.Exists("a") || !d.Exists("c") {
					t.Fatalf("rename not torn: %v", err)
				}
			}},
			{"append to both", func() { d.Append("s", "a", []byte("1")); d.Append("s", "c", []byte("2")) }},
			{"rename over a file", func() { d.Rename("s", "c", "b") }},
			{"rename onto itself", func() { d.Rename("s", "b", "b") }},
			{"truncate", func() { d.Create("s", "a") }},
			{"delete", func() { d.Delete("s", "b") }},
			{"reset", func() { d.Reset() }},
			{"append after reset", func() { d.Append("s", "a", []byte("abc")); d.Append("s", "d", big) }},
			{"write after reset", func() { d.Write("s", "b", []byte("bbb")) }},
		}
		for _, s := range steps {
			s.do()
			check(d, s.name)
		}
		if got, _ := d.Peek("a"); string(got) != "abc" {
			t.Fatalf("a = %q", got)
		}
	}
}

func TestListSizedByMatches(t *testing.T) {
	d := New(inject.NewRuntime(nil), nil)
	for _, p := range []string{"n1/a", "n2/a", "n2/b", "n2/c", "n3/a", "n3/b", "n3/c", "n3/d"} {
		d.Create("s", p)
	}
	if got := d.List("n1/"); len(got) != 1 || cap(got) > 2 {
		t.Fatalf("List(n1/) = %v, cap %d for 1 match of %d files", got, cap(got), 8)
	}
}

// TestCountIsLenList: Count agrees with List for every prefix of every
// path on the disk, the empty prefix and one nothing matches.
func TestCountIsLenList(t *testing.T) {
	d := New(inject.NewRuntime(nil), nil)
	paths := []string{"dn1/blk_1", "dn1/blk_2", "dn1/meta", "dn10/blk_1", "dn2/blk_1", "nn/edits"}
	for _, p := range paths {
		d.Create("s", p)
	}
	prefixes := []string{"", "missing/"}
	for _, p := range paths {
		for i := 1; i <= len(p); i++ {
			prefixes = append(prefixes, p[:i])
		}
	}
	for _, prefix := range prefixes {
		if c, l := d.Count(prefix), len(d.List(prefix)); c != l {
			t.Fatalf("Count(%q) = %d, len(List) = %d", prefix, c, l)
		}
	}
}

// TestPathIndexMatchesScan: after any sequence of operations — faulted
// and partial ones, renames onto existing paths and onto themselves, and
// Reset — the sorted index Count and List read holds exactly the keys of
// the file map, and both answer what a scan of the map answers.
func TestPathIndexMatchesScan(t *testing.T) {
	paths := []string{"a", "a/b", "a/c", "ab", "b/x", "b/xy", "dn1/blk_1", "dn1/blk_2", "dn10/blk_1"}
	prefixes := []string{"", "a", "a/", "b/x", "dn1", "dn1/blk_", "z"}
	scan := func(d *Disk, prefix string) []string {
		var out []string
		for p := range d.files {
			if strings.HasPrefix(p, prefix) {
				out = append(out, p)
			}
		}
		sort.Strings(out)
		return out
	}
	sites := []string{"s.a", "s.b"}
	var faults []inject.Instance
	for _, site := range sites {
		for occ := 1; occ <= 3; occ++ {
			faults = append(faults,
				inject.Instance{Site: inject.PseudoSiteID(inject.PartialTornRename, site, ""), Occurrence: occ},
				inject.Instance{Site: inject.PseudoSiteID(inject.PartialShortWrite, site, ""), Occurrence: occ},
				inject.Instance{Site: inject.PseudoSiteID(inject.PartialENOSPC, site, ""), Occurrence: occ},
				inject.Instance{Site: site, Occurrence: occ + 3})
		}
	}
	f := func(ops []uint16) bool {
		d := New(inject.NewRuntime(inject.Exact(faults...)), nil)
		for _, op := range ops {
			site := sites[int(op>>3)%len(sites)]
			p, q := paths[int(op>>4)%len(paths)], paths[int(op>>8)%len(paths)]
			switch op % 6 {
			case 0:
				d.Create(site, p)
			case 1:
				d.Append(site, p, []byte("abcd"))
			case 2:
				d.Write(site, p, []byte("xy"))
			case 3:
				d.Rename(site, p, q)
			case 4:
				d.Delete(site, p)
			case 5:
				if op%7 == 0 {
					d.Reset()
				}
			}
			if len(d.paths) != len(d.files) || !sort.StringsAreSorted(d.paths) {
				return false
			}
			for _, p := range d.paths {
				if _, ok := d.files[p]; !ok {
					return false
				}
			}
			for _, prefix := range prefixes {
				want := scan(d, prefix)
				if d.Count(prefix) != len(want) || !slices.Equal(d.List(prefix), want) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
