module asap/bench

go 1.22

require asap v0.0.0

replace asap => ../
