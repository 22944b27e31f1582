package main

import (
	"flag"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
)

// Usage: detlint dir [dir ...]
//
// Type-checks the package in each directory under the given ones
// (recursively), from its non-test .go files, lints those files, and
// exits 1 when any determinism hazard is found. Imports resolve from
// source, so run it from inside the module.
func main() {
	flag.Parse()
	dirs := flag.Args()
	if len(dirs) == 0 {
		fmt.Fprintln(os.Stderr, "usage: detlint dir [dir ...]")
		os.Exit(2)
	}
	fset := token.NewFileSet()
	imp := importer.ForCompiler(fset, "source", nil)
	bad := 0
	for _, root := range dirs {
		err := filepath.WalkDir(root, func(dir string, d fs.DirEntry, err error) error {
			if err != nil || !d.IsDir() {
				return err
			}
			files, err := parseDir(fset, dir)
			if err != nil || len(files) == 0 {
				return err
			}
			findings, err := lintPackage(fset, files, imp)
			if err != nil {
				return fmt.Errorf("type-check %s: %w", dir, err)
			}
			for _, f := range findings {
				fmt.Println(f.String())
				bad++
			}
			return nil
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, "detlint:", err)
			os.Exit(2)
		}
	}
	if bad > 0 {
		fmt.Fprintf(os.Stderr, "detlint: %d finding(s)\n", bad)
		os.Exit(1)
	}
}

// parseDir parses the non-test .go files directly in dir.
func parseDir(fset *token.FileSet, dir string) ([]*ast.File, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	return files, nil
}
