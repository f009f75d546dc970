package storage

// Namespace snapshot export/import for live resharding: when a retired
// group's sealed history is archived into its successor's namespace, the
// whole source namespace (cells and logs alike) is rewritten key-for-key
// into the destination. There is no blob format: the export is the Stable
// interface itself. Run against a WAL engine, List enumerates exactly the
// live index, Get and Records read each value back from where its record
// is, and the import lands as ordinary writes that the next commit group
// fsyncs; the source's records die when PurgeNamespace deletes them, and
// compaction reclaims them.

// ExportNamespace copies every key of src (cells via Put, logs via Append,
// preserving record order) into dst, returning the number of keys and
// payload bytes moved. src and dst are typically Prefixed views of the same
// shared engine, so "migration" is a namespace rewrite, not a second store.
func ExportNamespace(src, dst Stable) (keys int, bytes int64, err error) {
	names, err := src.List("")
	if err != nil {
		return 0, 0, err
	}
	for _, k := range names {
		// A name can hold a cell, a log, or (pathologically) both; copy
		// whichever exists so the destination replays identically.
		copied := false
		if v, ok, gerr := src.Get(k); gerr != nil {
			return keys, bytes, gerr
		} else if ok {
			if err := dst.Put(k, v); err != nil {
				return keys, bytes, err
			}
			bytes += int64(len(v))
			copied = true
		}
		recs, rerr := src.Records(k)
		if rerr != nil {
			return keys, bytes, rerr
		}
		for _, r := range recs {
			if err := dst.Append(k, r); err != nil {
				return keys, bytes, err
			}
			bytes += int64(len(r))
			copied = true
		}
		if copied {
			keys++
		}
	}
	return keys, bytes, nil
}

// PurgeNamespace deletes every key of st (a Prefixed view of a retired
// group's namespace), returning the count removed. On a WAL engine the
// deletes make the records dead, so the next compaction cycle reclaims the
// disk they held.
func PurgeNamespace(st Stable) (int, error) {
	names, err := st.List("")
	if err != nil {
		return 0, err
	}
	for i, k := range names {
		if err := st.Delete(k); err != nil {
			return i, err
		}
	}
	return len(names), nil
}
