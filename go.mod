module geckoftl

go 1.24

// No requirements, on purpose: the product, the tools and the analyzer suite
// (cmd/geckolint) build on the standard library alone, so nothing here needs
// the network or a go.sum. CI's lint job fails if a dependency appears.
