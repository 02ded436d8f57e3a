package sysimage

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
)

// MarshalJSONIndent serializes the image to indented JSON. Map iteration
// order does not matter because encoding/json sorts map keys.
func (im *Image) MarshalJSONIndent() ([]byte, error) {
	return json.MarshalIndent(im, "", "  ")
}

// LoadJSON deserializes an image produced by MarshalJSONIndent. The
// native decoder handles every document an encoder emits for an Image;
// anything else goes to decodeOracle, which decides it exactly as
// encoding/json does. LoadJSON keeps no reference to data.
func LoadJSON(data []byte) (*Image, error) {
	if im, ok := decodeNative(data); ok {
		return im, nil
	}
	return decodeOracle(data)
}

// decodeOracle is the reflection-driven encoding/json decode: the path
// for inputs the native decoder declines, and the reference it is
// differentially tested against.
func decodeOracle(data []byte) (*Image, error) {
	var im Image
	if err := json.Unmarshal(data, &im); err != nil {
		return nil, fmt.Errorf("sysimage: decode image: %w", err)
	}
	for _, err := range []error{
		nullEntry("files", im.Files),
		nullEntry("users", im.Users),
		nullEntry("groups", im.Groups),
	} {
		if err != nil {
			return nil, err
		}
	}
	im.initMaps()
	im.internStrings()
	return &im, nil
}

// nullEntry rejects a null value in m, naming its least key: encoding/json
// stores it as a nil pointer, which every reader of the map dereferences.
func nullEntry[V any](field string, m map[string]*V) error {
	found, least := false, ""
	for k, v := range m {
		if v == nil && (!found || k < least) {
			found, least = true, k
		}
	}
	if !found {
		return nil
	}
	return fmt.Errorf("sysimage: decode image: %s[%q] is null", field, least)
}

// initMaps gives a document that omitted or nulled a map an empty one, so
// callers can always index and insert.
func (im *Image) initMaps() {
	if im.Files == nil {
		im.Files = make(map[string]*FileMeta)
	}
	if im.Users == nil {
		im.Users = make(map[string]*User)
	}
	if im.Groups == nil {
		im.Groups = make(map[string]*Group)
	}
	if im.Env == nil {
		im.Env = make(map[string]string)
	}
}

// SaveDir writes one JSON file per image into dir, creating it if needed.
// File names are "<id>.json".
func SaveDir(dir string, images []*Image) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("sysimage: create %s: %w", dir, err)
	}
	for _, im := range images {
		data, err := im.MarshalJSONIndent()
		if err != nil {
			return fmt.Errorf("sysimage: encode %s: %w", im.ID, err)
		}
		name := filepath.Join(dir, im.ID+".json")
		if err := os.WriteFile(name, data, 0o644); err != nil {
			return fmt.Errorf("sysimage: write %s: %w", name, err)
		}
	}
	return nil
}

// LoadDir reads every "*.json" image in dir, sorted by file name so corpora
// load deterministically.
func LoadDir(dir string) ([]*Image, error) {
	names, err := JSONNamesIn(dir)
	if err != nil {
		return nil, fmt.Errorf("sysimage: read %s: %w", dir, err)
	}
	images := make([]*Image, 0, len(names))
	for _, n := range names {
		im, err := loadFile(filepath.Join(dir, n), n)
		if err != nil {
			return nil, err
		}
		images = append(images, im)
	}
	return images, nil
}
