package store

import (
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
)

// FS is the filesystem backend: blobs are plain files under a root
// directory, so a campaign written through FS is byte-identical to
// the historical bare-directory layout (manifest.json, outcomes.json,
// rendered.txt, csv/*) and remains directly greppable/diffable.
type FS struct {
	root string
}

// NewFS returns a filesystem store rooted at dir. The directory is
// created lazily on first Put, so opening a store for reading never
// litters the filesystem.
func NewFS(dir string) *FS { return &FS{root: dir} }

func (f *FS) path(name string) (string, error) {
	cleaned, err := CleanName(name)
	if err != nil {
		return "", err
	}
	return filepath.Join(f.root, filepath.FromSlash(cleaned)), nil
}

// Put writes data to root/name (0o644), creating parent directories
// as needed.
func (f *FS) Put(name string, data []byte) error {
	p, err := f.path(name)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
		return fmt.Errorf("store: put %s: %w", name, err)
	}
	if err := os.WriteFile(p, data, 0o644); err != nil {
		return fmt.Errorf("store: put %s: %w", name, err)
	}
	return nil
}

// Get reads root/name.
func (f *FS) Get(name string) ([]byte, error) {
	p, err := f.path(name)
	if err != nil {
		return nil, err
	}
	data, err := os.ReadFile(p)
	if errors.Is(err, fs.ErrNotExist) {
		return nil, notExist(name)
	}
	if err != nil {
		return nil, fmt.Errorf("store: get %s: %w", name, err)
	}
	return data, nil
}

// List walks the root and returns every file as a sorted
// slash-separated relative path. A store whose root does not exist
// yet lists as empty.
func (f *FS) List() ([]string, error) {
	var names []string
	err := filepath.WalkDir(f.root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			return nil
		}
		rel, err := filepath.Rel(f.root, p)
		if err != nil {
			return err
		}
		names = append(names, filepath.ToSlash(rel))
		return nil
	})
	if errors.Is(err, fs.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("store: list %s: %w", f.root, err)
	}
	sort.Strings(names)
	return names, nil
}

// Delete removes root/name; missing names are a no-op. Emptied parent
// directories are left in place (the layout is append-mostly and a
// stable tree is easier to reason about).
func (f *FS) Delete(name string) error {
	p, err := f.path(name)
	if err != nil {
		return err
	}
	if err := os.Remove(p); err != nil && !errors.Is(err, fs.ErrNotExist) {
		return fmt.Errorf("store: delete %s: %w", name, err)
	}
	return nil
}

// Manifest digests the directory's current contents.
func (f *FS) Manifest() (*Manifest, error) { return buildManifest(f) }

// ensure FS cannot silently drift from the interface.
var _ Store = (*FS)(nil)
