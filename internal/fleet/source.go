package fleet

import (
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/sysimage"
)

// Source enumerates a fleet of scan targets by global input index. The
// index order is the fleet's canonical order (for directories: file name
// sort, exactly like sysimage.LoadDir), which is what the coordinator's
// deterministic aggregation is keyed on. Load is called by coordinator
// workers concurrently and must be safe for concurrent use with distinct
// indices; the same index is never loaded twice.
type Source interface {
	// Len is the fleet size.
	Len() int
	// Name identifies task i for error records and span attributes — a
	// file path for directory fleets. Names are unique per index.
	Name(i int) string
	// Size estimates the in-memory payload of task i in bytes (file size
	// on disk, blob length). The coordinator's memory budget meters this
	// estimate; 0 means the task holds no transient payload (an already
	// resident image) and bypasses the budget.
	Size(i int) int64
	// Load materializes image i. The coordinator releases the budget
	// reservation when the image's check completes, so Load's result must
	// not be retained by the source.
	Load(i int) (*sysimage.Image, error)
}

// DirSource walks a directory of "*.json" image snapshots in sorted file
// name order — the streaming fleet source behind `encore scan` and the
// daemon's ?dir= batch mode. Only the name list is resident (~bytes per
// image); image payloads are decoded one at a time through sysimage's
// pooled read buffers.
type DirSource struct {
	dir   string
	names []string
}

// NewDirSource lists dir's "*.json" entries in sysimage.LoadDir's order.
func NewDirSource(dir string) (*DirSource, error) {
	names, err := sysimage.JSONNamesIn(dir)
	if err != nil {
		return nil, fmt.Errorf("fleet: read %s: %w", dir, err)
	}
	return &DirSource{dir: dir, names: names}, nil
}

// Len is the number of image files found.
func (s *DirSource) Len() int { return len(s.names) }

// Name returns the full path of image i, the Path of its ScanError.
func (s *DirSource) Name(i int) string { return filepath.Join(s.dir, s.names[i]) }

// Size is the on-disk file size — the budget estimate for the decoded
// image. A stat failure reports 0; the subsequent Load fails with the
// real error.
func (s *DirSource) Size(i int) int64 {
	st, err := os.Stat(s.Name(i))
	if err != nil {
		return 0
	}
	return st.Size()
}

// Load decodes image i through the pooled file reader.
func (s *DirSource) Load(i int) (*sysimage.Image, error) {
	return sysimage.LoadFile(s.Name(i))
}

// ImageSource adapts an already-resident image slice, scanned in slice
// order. Size is 0 for every task: the images are alive regardless, so
// the memory budget has nothing to meter.
type ImageSource struct {
	Images []*sysimage.Image
}

// Len is the image count.
func (s *ImageSource) Len() int { return len(s.Images) }

// Name is the image ID.
func (s *ImageSource) Name(i int) string { return s.Images[i].ID }

// Size is always 0 (already resident).
func (s *ImageSource) Size(i int) int64 { return 0 }

// Load returns the resident image.
func (s *ImageSource) Load(i int) (*sysimage.Image, error) { return s.Images[i], nil }

// BlobSource scans a slice of raw image JSON payloads — the daemon's
// batch-body mode, where the request carried the images inline.
type BlobSource struct {
	// Blobs holds one encoded image per task.
	Blobs [][]byte
	// BaseName prefixes the per-index task names ("body" → "body[3]").
	BaseName string
}

// Len is the blob count.
func (s *BlobSource) Len() int { return len(s.Blobs) }

// Name labels blob i by its position in the request.
func (s *BlobSource) Name(i int) string {
	base := s.BaseName
	if base == "" {
		base = "blob"
	}
	return fmt.Sprintf("%s[%d]", base, i)
}

// Size is the encoded payload length.
func (s *BlobSource) Size(i int) int64 { return int64(len(s.Blobs[i])) }

// Load decodes blob i.
func (s *BlobSource) Load(i int) (*sysimage.Image, error) {
	return sysimage.LoadJSON(s.Blobs[i])
}

// SyntheticSource fabricates an arbitrarily large fleet from a small set
// of pre-rendered image JSON variants: task i decodes variant i mod K and
// restamps its ID, so a 100k-image walk exercises the full decode path
// (pooled buffers, interning, per-image garbage) while only K blobs stay
// resident. This is the fleet-scale benchmark and smoke-test source —
// constant memory by construction, at any fleet size.
type SyntheticSource struct {
	variants [][]byte
	n        int
}

// NewSyntheticSource renders each image to JSON once and returns a source
// of n tasks cycling through them.
func NewSyntheticSource(images []*sysimage.Image, n int) (*SyntheticSource, error) {
	if len(images) == 0 {
		return nil, fmt.Errorf("fleet: synthetic source needs at least one variant image")
	}
	variants := make([][]byte, len(images))
	for i, im := range images {
		data, err := im.MarshalJSONIndent()
		if err != nil {
			return nil, fmt.Errorf("fleet: encode variant %s: %w", im.ID, err)
		}
		variants[i] = data
	}
	return &SyntheticSource{variants: variants, n: n}, nil
}

// Len is the synthetic fleet size.
func (s *SyntheticSource) Len() int { return s.n }

// Name stamps a stable synthetic identity per index.
func (s *SyntheticSource) Name(i int) string {
	return fmt.Sprintf("synthetic-%07d.json", i)
}

// Size is the encoded variant length.
func (s *SyntheticSource) Size(i int) int64 {
	return int64(len(s.variants[i%len(s.variants)]))
}

// Load decodes the variant and restamps its ID with the task index so
// every report carries a unique image identity.
func (s *SyntheticSource) Load(i int) (*sysimage.Image, error) {
	im, err := sysimage.LoadJSON(s.variants[i%len(s.variants)])
	if err != nil {
		return nil, err
	}
	im.ID = fmt.Sprintf("synthetic-%07d", i)
	return im, nil
}
