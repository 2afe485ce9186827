//go:build unix

package snapshot

import (
	"fmt"
	"os"
	"syscall"
)

// openMapping maps the file read-only. Mapping shares pages with the page
// cache, so a multi-gigabyte snapshot opens in milliseconds and unread
// sections never touch memory. An empty file cannot be mapped; it decodes
// to ErrTruncated via a zero-length heap slice instead.
func openMapping(path string) (*Mapping, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return nil, err
	}
	size := st.Size()
	if size == 0 {
		return &Mapping{data: []byte{}}, nil
	}
	if size != int64(int(size)) {
		return nil, fmt.Errorf("%s: size %d overflows the address space", path, size)
	}
	data, err := syscall.Mmap(int(f.Fd()), 0, int(size), syscall.PROT_READ, syscall.MAP_SHARED)
	if err != nil {
		return nil, fmt.Errorf("mmap %s: %w", path, err)
	}
	return &Mapping{data: data, mmapped: true}, nil
}

func munmap(data []byte) error {
	return syscall.Munmap(data)
}

// syncDir fsyncs a directory, making a rename inside it durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}
