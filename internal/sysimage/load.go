package sysimage

import (
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"sync"

	"repro/internal/intern"
)

// internStrings canonicalizes the image's small-vocabulary fields through
// the process-wide interner: a corpus repeats the same owners, groups,
// shells, apps, and paths in every image, so deduplicating them on load
// keeps one copy alive instead of one per image.
func (im *Image) internStrings() {
	for _, fm := range im.Files {
		fm.Owner = intern.String(fm.Owner)
		fm.Group = intern.String(fm.Group)
		fm.Target = intern.String(fm.Target)
	}
	for _, u := range im.Users {
		u.Home = intern.String(u.Home)
		u.Shell = intern.String(u.Shell)
	}
	for i := range im.Services {
		im.Services[i].Name = intern.String(im.Services[i].Name)
		im.Services[i].Protocol = intern.String(im.Services[i].Protocol)
	}
	for i := range im.ConfigFiles {
		im.ConfigFiles[i].App = intern.String(im.ConfigFiles[i].App)
		im.ConfigFiles[i].Path = intern.String(im.ConfigFiles[i].Path)
	}
	im.OS.DistName = intern.String(im.OS.DistName)
	im.OS.Version = intern.String(im.OS.Version)
	im.OS.SELinux = intern.String(im.OS.SELinux)
	im.OS.FSType = intern.String(im.OS.FSType)
}

// readBufPool recycles whole-file read buffers across LoadFile calls.
// LoadJSON keeps no reference to its input (every string it keeps is
// interned or copied), so returning the buffer right after decoding is
// safe.
var readBufPool = sync.Pool{New: func() any {
	b := make([]byte, 0, 64<<10)
	return &b
}}

// LoadFile reads and decodes one image snapshot through a pooled read
// buffer, so a batch scanner loading thousands of files does not allocate
// one decode buffer per file.
func LoadFile(path string) (*Image, error) { return loadFile(path, path) }

// loadFile is LoadFile with errors naming the file as name.
func loadFile(path, name string) (*Image, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("sysimage: read %s: %w", name, err)
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return nil, fmt.Errorf("sysimage: read %s: %w", name, err)
	}
	bp := readBufPool.Get().(*[]byte)
	defer readBufPool.Put(bp)
	n := int(st.Size())
	if cap(*bp) < n {
		*bp = make([]byte, 0, n)
	}
	buf := (*bp)[:n]
	if _, err := io.ReadFull(f, buf); err != nil {
		return nil, fmt.Errorf("sysimage: read %s: %w", name, err)
	}
	im, err := LoadJSON(buf)
	if err != nil {
		return nil, fmt.Errorf("sysimage: %s: %w", name, err)
	}
	return im, nil
}

// WithPooledRead reads r to EOF through a pooled buffer and passes the
// bytes to fn — the streaming-body sibling of LoadFile's pooled read,
// used by the serve daemon so per-request image decode allocates no
// transient body buffer. The buffer is recycled when fn returns, so fn
// must not retain it (decoding through LoadJSON is safe: LoadJSON keeps
// no reference to its input). sizeHint, when positive, pre-sizes the
// buffer (a Content-Length); reads still grow past it as needed.
func WithPooledRead(r io.Reader, sizeHint int, fn func([]byte) error) error {
	bp := readBufPool.Get().(*[]byte)
	defer readBufPool.Put(bp)
	buf := (*bp)[:0]
	// Clamp adversarial hints: a faked Content-Length must not pin a huge
	// pooled allocation. Growth below handles genuinely large bodies.
	const hintCap = 1 << 20
	if sizeHint > cap(buf) && sizeHint <= hintCap {
		buf = make([]byte, 0, sizeHint)
	}
	for {
		if len(buf) == cap(buf) {
			buf = append(buf, 0)[:len(buf)]
		}
		n, err := r.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if err == io.EOF {
			break
		}
		if err != nil {
			*bp = buf
			return fmt.Errorf("sysimage: read body: %w", err)
		}
	}
	*bp = buf // keep the grown buffer for the pool
	return fn(buf)
}

// JSONNamesIn lists the "*.json" entries of dir sorted by file name: the
// deterministic corpus order of LoadDir and of the fleet's directory
// source. Its error is os.ReadDir's, so each caller prefixes its own.
func JSONNamesIn(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	names := make([]string, 0, len(entries))
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".json") {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	return names, nil
}
